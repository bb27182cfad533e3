//! End-to-end semantics of the four Diff-Index schemes against the real
//! cluster + LSM substrate: correctness of index maintenance, read-repair,
//! session consistency, and the consistency levels of Figure 4.

use bytes::Bytes;
use diff_index_cluster::{Cluster, ClusterOptions};
use diff_index_core::{DiffIndex, IndexScheme, IndexSpec};
use diff_index_lsm::{LsmOptions, TableOptions};
use tempdir_lite::TempDir;

fn small_lsm() -> LsmOptions {
    LsmOptions {
        memtable_flush_bytes: 16 * 1024,
        table: TableOptions { block_size: 512, bloom_bits_per_key: 10 },
        compaction_trigger: 4,
        version_retention: u64::MAX,
        ..LsmOptions::default()
    }
}

fn setup(scheme: IndexScheme) -> (TempDir, Cluster, DiffIndex) {
    let dir = TempDir::new("diffidx").unwrap();
    let cluster =
        Cluster::new(dir.path(), ClusterOptions { num_servers: 2, lsm: small_lsm() }).unwrap();
    cluster.create_table("item", 4).unwrap();
    let di = DiffIndex::new(cluster.clone());
    di.create_index(IndexSpec::single("title", "item", "item_title", scheme), 4).unwrap();
    (dir, cluster, di)
}

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

fn put_title(cluster: &Cluster, row: &str, title: &str) -> u64 {
    cluster.put("item", row.as_bytes(), &[(b("item_title"), b(title))]).unwrap()
}

fn rows_of(hits: &[diff_index_core::IndexHit]) -> Vec<String> {
    let mut v: Vec<String> =
        hits.iter().map(|h| String::from_utf8(h.row.to_vec()).unwrap()).collect();
    v.sort();
    v
}

// --- sync-full -------------------------------------------------------------

#[test]
fn sync_full_index_is_immediately_consistent() {
    let (_d, cluster, di) = setup(IndexScheme::SyncFull);
    put_title(&cluster, "item1", "red shirt");
    put_title(&cluster, "item2", "red shirt");
    put_title(&cluster, "item3", "blue pants");
    let hits = di.get_by_index("item", "title", b"red shirt", 100).unwrap();
    assert_eq!(rows_of(&hits), vec!["item1", "item2"]);
    let hits = di.get_by_index("item", "title", b"blue pants", 100).unwrap();
    assert_eq!(rows_of(&hits), vec!["item3"]);
    assert!(di.get_by_index("item", "title", b"green hat", 100).unwrap().is_empty());
}

#[test]
fn sync_full_update_removes_old_entry_immediately() {
    let (_d, cluster, di) = setup(IndexScheme::SyncFull);
    put_title(&cluster, "item1", "old title");
    put_title(&cluster, "item1", "new title");
    assert!(di.get_by_index("item", "title", b"old title", 100).unwrap().is_empty());
    let hits = di.get_by_index("item", "title", b"new title", 100).unwrap();
    assert_eq!(rows_of(&hits), vec!["item1"]);
}

#[test]
fn sync_full_same_value_reput_keeps_entry() {
    // The δ subtlety of §4.3: when vnew == vold, the delete at tnew−δ must
    // not kill the entry that was just written at tnew.
    let (_d, cluster, di) = setup(IndexScheme::SyncFull);
    put_title(&cluster, "item1", "same");
    put_title(&cluster, "item1", "same");
    let hits = di.get_by_index("item", "title", b"same", 100).unwrap();
    assert_eq!(rows_of(&hits), vec!["item1"]);
}

#[test]
fn sync_full_delete_removes_entry() {
    let (_d, cluster, di) = setup(IndexScheme::SyncFull);
    put_title(&cluster, "item1", "gone");
    cluster.delete("item", b"item1", &[b("item_title")]).unwrap();
    assert!(di.get_by_index("item", "title", b"gone", 100).unwrap().is_empty());
}

#[test]
fn sync_full_update_writes_one_index_wal_record_when_both_entries_share_a_region() {
    // Both titles start with a letter, so SU2's put and SU4's delete land
    // in one index region: one WAL record and one fsync.
    let dir = TempDir::new("diffidx").unwrap();
    let lsm = LsmOptions { wal_sync: true, version_retention: u64::MAX, ..LsmOptions::default() };
    let cluster = Cluster::new(dir.path(), ClusterOptions { num_servers: 2, lsm }).unwrap();
    cluster.create_table("item", 4).unwrap();
    let di = DiffIndex::new(cluster.clone());
    di.create_index(IndexSpec::single("title", "item", "item_title", IndexScheme::SyncFull), 4)
        .unwrap();
    let index_table = di.index("item", "title").unwrap().spec.index_table();
    put_title(&cluster, "item1", "before");

    let before = cluster.table_metrics(&index_table).unwrap();
    put_title(&cluster, "item1", "over");
    let d = cluster.table_metrics(&index_table).unwrap() - before;
    assert_eq!((d.puts, d.deletes), (1, 1), "SU2's put and SU4's delete");
    assert_eq!(d.wal_appends, 1, "both entries in one WAL record");
    assert_eq!(d.wal_fsyncs, 1, "and one fsync");
    assert!(di.get_by_index("item", "title", b"before", 100).unwrap().is_empty());
    assert_eq!(rows_of(&di.get_by_index("item", "title", b"over", 100).unwrap()), vec!["item1"]);
}

#[test]
fn sync_full_update_puts_the_new_entry_at_ts_and_deletes_the_old_at_ts_minus_delta() {
    use diff_index_core::encoding::index_row;
    use diff_index_lsm::DELTA;

    let (_d, cluster, di) = setup(IndexScheme::SyncFull);
    let index_table = di.index("item", "title").unwrap().spec.index_table();
    put_title(&cluster, "item1", "before");
    let ts = put_title(&cluster, "item1", "after");
    let newest = |title: &str| {
        let key = index_row(&[b(title)], b"item1");
        cluster.get_cell_versioned(&index_table, &key, b"", u64::MAX).unwrap()
    };
    assert_eq!(newest("after"), Some((ts, false)), "the new entry's put at ts");
    assert_eq!(newest("before"), Some((ts - DELTA, true)), "the old entry's delete at ts - δ");
}

#[test]
fn sync_full_put_retries_only_the_entry_whose_index_region_is_down() {
    // The single-put twin of the batch test below: the old entry's index
    // region is on the live server, the new entry's on the crashed one.
    use diff_index_core::encoding::index_row;
    use diff_index_core::verify_index;

    let (_d, cluster, di) = setup(IndexScheme::SyncFull);
    let handle = di.index("item", "title").unwrap();
    let (index_table, auq) = (handle.spec.index_table(), handle.auq());
    let server_of = |title: &str| {
        cluster.server_for_row(&index_table, &index_row(&[b(title)], b"item1")).unwrap()
    };
    let live = cluster.server_for_row("item", b"item1").unwrap();
    let (old, new) = ("old", "0-new");
    assert_eq!(server_of(old), live);
    let down = server_of(new);
    assert_ne!(down, live);
    put_title(&cluster, "item1", old);

    // Hold the retry queue so the retry can be counted before it runs.
    auq.set_stalled(true);
    cluster.crash_server(down);
    let ts = put_title(&cluster, "item1", new);
    assert_eq!(auq.depth(), 1, "only the new entry's put is retried");
    let present = |title: &str| {
        let key = index_row(&[b(title)], b"item1");
        cluster.get(&index_table, &key, b"", u64::MAX).unwrap().is_some()
    };
    assert!(!present(old), "the old entry's delete landed on the live server");

    cluster.recover().unwrap();
    auq.set_stalled(false);
    di.quiesce("item");
    let hits = di.get_by_index("item", "title", new.as_bytes(), 100).unwrap();
    assert_eq!(rows_of(&hits), vec!["item1"]);
    assert_eq!(hits[0].ts, ts, "the retried put keeps the base timestamp");
    let report = verify_index(&cluster, &handle.spec).unwrap();
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn sync_insert_does_not_fan_out() {
    // sync-insert has no repair arm; SU2 runs inline with zero dispatch
    // overhead.
    let (_d, cluster, di) = setup(IndexScheme::SyncInsert);
    put_title(&cluster, "item1", "solo");
    let auq = std::sync::Arc::clone(di.index("item", "title").unwrap().auq());
    use std::sync::atomic::Ordering;
    assert_eq!(auq.metrics().fanout_dispatches.load(Ordering::Relaxed), 0);
}

#[test]
fn index_entry_timestamp_equals_base_timestamp() {
    // The concurrency-control invariant of §4.3.
    let (_d, cluster, di) = setup(IndexScheme::SyncFull);
    let ts = put_title(&cluster, "item1", "stamped");
    let hits = di.get_by_index("item", "title", b"stamped", 100).unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].ts, ts);
}

// --- sync-insert -------------------------------------------------------------

#[test]
fn sync_insert_leaves_stale_entry_but_read_repairs() {
    let (_d, cluster, di) = setup(IndexScheme::SyncInsert);
    put_title(&cluster, "item1", "version-a");
    put_title(&cluster, "item1", "version-b");

    // The raw index table still holds BOTH entries (no sync delete)…
    let idx_table = di.index("item", "title").unwrap().spec.index_table();
    let raw = cluster
        .scan_rows_prefix(&idx_table, &diff_index_core::encoding::value_prefix(b"version-a"), u64::MAX, 10)
        .unwrap();
    assert_eq!(raw.len(), 1, "stale entry expected before read-repair");

    // …but getByIndex double-checks and hides it (Algorithm 2)…
    assert!(di.get_by_index("item", "title", b"version-a", 100).unwrap().is_empty());
    let hits = di.get_by_index("item", "title", b"version-b", 100).unwrap();
    assert_eq!(rows_of(&hits), vec!["item1"]);

    // …and the stale entry is now physically gone (repaired).
    let raw = cluster
        .scan_rows_prefix(&idx_table, &diff_index_core::encoding::value_prefix(b"version-a"), u64::MAX, 10)
        .unwrap();
    assert!(raw.is_empty(), "read-repair must delete the stale entry");
}

#[test]
fn sync_insert_read_after_base_delete_repairs() {
    let (_d, cluster, di) = setup(IndexScheme::SyncInsert);
    put_title(&cluster, "item1", "doomed");
    cluster.delete("item", b"item1", &[b("item_title")]).unwrap();
    assert!(di.get_by_index("item", "title", b"doomed", 100).unwrap().is_empty());
}

#[test]
fn sync_insert_fresh_entries_are_correct() {
    let (_d, cluster, di) = setup(IndexScheme::SyncInsert);
    for i in 0..20 {
        put_title(&cluster, &format!("item{i}"), if i % 2 == 0 { "even" } else { "odd" });
    }
    let hits = di.get_by_index("item", "title", b"even", 100).unwrap();
    assert_eq!(hits.len(), 10);
    for h in &hits {
        assert_eq!(h.values[0], Bytes::from("even"));
    }
}

#[test]
fn sync_insert_limited_read_scans_past_a_window_of_stale_entries() {
    // 20 stale entries ahead of the live ones: more than a limit-2 read's
    // over-fetch window of 18, so the read must resume past it.
    let (_d, cluster, di) = setup(IndexScheme::SyncInsert);
    for i in 0..25 {
        put_title(&cluster, &format!("r{i:02}"), "v");
    }
    for i in 0..20 {
        put_title(&cluster, &format!("r{i:02}"), "w");
    }
    let hits = di.get_by_index("item", "title", b"v", 2).unwrap();
    assert_eq!(rows_of(&hits), vec!["r20", "r21"]);
    let hits = di.range_by_index("item", "title", b"v", b"v", true, 3).unwrap();
    assert_eq!(rows_of(&hits), vec!["r20", "r21", "r22"]);
    let hits = di.get_by_index("item", "title", b"v", 100).unwrap();
    assert_eq!(rows_of(&hits), vec!["r20", "r21", "r22", "r23", "r24"]);
    assert_eq!(di.get_by_index("item", "title", b"w", 100).unwrap().len(), 20);
}

// --- async-simple ------------------------------------------------------------

#[test]
fn async_simple_is_eventually_consistent() {
    let (_d, cluster, di) = setup(IndexScheme::AsyncSimple);
    put_title(&cluster, "item1", "eventual");
    // After quiescing the AUQ the index must be complete and correct.
    di.quiesce("item");
    let hits = di.get_by_index("item", "title", b"eventual", 100).unwrap();
    assert_eq!(rows_of(&hits), vec!["item1"]);
}

#[test]
fn async_simple_update_converges_to_single_entry() {
    let (_d, cluster, di) = setup(IndexScheme::AsyncSimple);
    for v in ["v1", "v2", "v3", "v4"] {
        put_title(&cluster, "item1", v);
    }
    di.quiesce("item");
    for v in ["v1", "v2", "v3"] {
        assert!(
            di.get_by_index("item", "title", v.as_bytes(), 100).unwrap().is_empty(),
            "old value {v} must be unindexed after convergence"
        );
    }
    let hits = di.get_by_index("item", "title", b"v4", 100).unwrap();
    assert_eq!(rows_of(&hits), vec!["item1"]);
}

#[test]
fn async_simple_delete_converges() {
    let (_d, cluster, di) = setup(IndexScheme::AsyncSimple);
    put_title(&cluster, "item1", "temp");
    di.quiesce("item");
    cluster.delete("item", b"item1", &[b("item_title")]).unwrap();
    di.quiesce("item");
    assert!(di.get_by_index("item", "title", b"temp", 100).unwrap().is_empty());
}

#[test]
fn async_simple_heavy_write_batch_converges() {
    let (_d, cluster, di) = setup(IndexScheme::AsyncSimple);
    for i in 0..200 {
        put_title(&cluster, &format!("item{i:03}"), &format!("title{:02}", i % 10));
    }
    di.quiesce("item");
    for t in 0..10 {
        let hits =
            di.get_by_index("item", "title", format!("title{t:02}").as_bytes(), 1000).unwrap();
        assert_eq!(hits.len(), 20, "title{t:02} should index 20 items");
    }
}

// --- async-session -----------------------------------------------------------

#[test]
fn session_sees_own_writes_immediately() {
    let (_d, _cluster, di) = setup(IndexScheme::AsyncSession);
    let session = di.session();
    session.put("item", b"item1", &[(b("item_title"), b("mine"))]).unwrap();
    // No quiesce: the AUQ may not have delivered yet, but the session must
    // see its own write (read-your-writes, §3.3/§5.2).
    let hits = session.get_by_index("item", "title", b"mine", 100).unwrap();
    assert_eq!(rows_of(&hits), vec!["item1"]);
}

#[test]
fn other_clients_are_only_eventually_consistent() {
    let (_d, _cluster, di) = setup(IndexScheme::AsyncSession);
    let user1 = di.session();
    user1.put("item", b"item1", &[(b("item_title"), b("review-a"))]).unwrap();
    // User 2 (plain read) may or may not see it yet; after quiesce they must.
    di.quiesce("item");
    let hits = di.get_by_index("item", "title", b"review-a", 100).unwrap();
    assert_eq!(rows_of(&hits), vec!["item1"]);
}

#[test]
fn session_update_hides_old_value_immediately() {
    let (_d, _cluster, di) = setup(IndexScheme::AsyncSession);
    let s = di.session();
    s.put("item", b"item1", &[(b("item_title"), b("before"))]).unwrap();
    di.quiesce("item"); // server index now has "before"
    s.put("item", b"item1", &[(b("item_title"), b("after"))]).unwrap();
    // Even though the AUQ hasn't delivered the update, the session's private
    // delete marker must hide the stale server entry.
    let hits = s.get_by_index("item", "title", b"before", 100).unwrap();
    assert!(hits.is_empty(), "session must not see its own overwritten value");
    let hits = s.get_by_index("item", "title", b"after", 100).unwrap();
    assert_eq!(rows_of(&hits), vec!["item1"]);
}

#[test]
fn session_merge_deduplicates_once_index_catches_up() {
    let (_d, _cluster, di) = setup(IndexScheme::AsyncSession);
    let s = di.session();
    s.put("item", b"item1", &[(b("item_title"), b("dup"))]).unwrap();
    di.quiesce("item");
    // Server now has the entry too; merged result must still be one hit.
    let hits = s.get_by_index("item", "title", b"dup", 100).unwrap();
    assert_eq!(hits.len(), 1);
}

#[test]
fn ended_session_rejects_operations() {
    let (_d, _cluster, di) = setup(IndexScheme::AsyncSession);
    let s = di.session();
    s.end();
    assert!(matches!(
        s.put("item", b"r", &[(b("item_title"), b("v"))]),
        Err(diff_index_core::IndexError::SessionExpired)
    ));
    assert!(matches!(
        s.get_by_index("item", "title", b"v", 10),
        Err(diff_index_core::IndexError::SessionExpired)
    ));
}

#[test]
fn session_memory_cap_disables_consistency_gracefully() {
    let dir = TempDir::new("diffidx").unwrap();
    let cluster =
        Cluster::new(dir.path(), ClusterOptions { num_servers: 1, lsm: small_lsm() }).unwrap();
    cluster.create_table("item", 2).unwrap();
    let di = DiffIndex::with_session_config(
        cluster.clone(),
        diff_index_core::SessionConfig {
            max_idle: std::time::Duration::from_secs(1800),
            max_bytes: 256, // tiny budget
        },
    );
    di.create_index(IndexSpec::single("title", "item", "item_title", IndexScheme::AsyncSession), 2)
        .unwrap();
    let s = di.session();
    for i in 0..50 {
        s.put("item", format!("item{i}").as_bytes(), &[(b("item_title"), b("t"))]).unwrap();
    }
    assert!(s.consistency_disabled(), "tiny budget must trip the memory monitor");
    // Session still usable — it just degrades to async-simple semantics.
    di.quiesce("item");
    let hits = s.get_by_index("item", "title", b"t", 100).unwrap();
    assert_eq!(hits.len(), 50);
}

// --- the paper's §3.3 scenario ------------------------------------------------

#[test]
fn section_3_3_review_scenario() {
    // User 1 posts a review for product A and immediately lists reviews for
    // A: must see their own review. User 2's listing is eventual.
    let dir = TempDir::new("diffidx").unwrap();
    let cluster =
        Cluster::new(dir.path(), ClusterOptions { num_servers: 2, lsm: small_lsm() }).unwrap();
    cluster.create_table("reviews", 4).unwrap();
    let di = DiffIndex::new(cluster.clone());
    di.create_index(
        IndexSpec::single("by_product", "reviews", "ProductID", IndexScheme::AsyncSession),
        4,
    )
    .unwrap();

    // Pre-existing review by someone else, already indexed.
    cluster.put("reviews", b"rev-old", &[(b("ProductID"), b("productA"))]).unwrap();
    di.quiesce("reviews");

    let user1 = di.session();
    // 1. User 1 views reviews for product A.
    let before = user1.get_by_index("reviews", "by_product", b"productA", 100).unwrap();
    assert_eq!(before.len(), 1);
    // 2. User 1 posts a review for product A.
    user1.put("reviews", b"rev-new", &[(b("ProductID"), b("productA"))]).unwrap();
    // 3. User 1 lists reviews for A — must include their own, instantly.
    let after = user1.get_by_index("reviews", "by_product", b"productA", 100).unwrap();
    assert_eq!(rows_of(&after), vec!["rev-new", "rev-old"]);

    // User 2 eventually sees it too.
    di.quiesce("reviews");
    let user2_view = di.get_by_index("reviews", "by_product", b"productA", 100).unwrap();
    assert_eq!(rows_of(&user2_view), vec!["rev-new", "rev-old"]);
}

// --- shared behaviours ---------------------------------------------------------

#[test]
fn backfill_indexes_existing_rows() {
    let dir = TempDir::new("diffidx").unwrap();
    let cluster =
        Cluster::new(dir.path(), ClusterOptions { num_servers: 2, lsm: small_lsm() }).unwrap();
    cluster.create_table("item", 4).unwrap();
    // Data exists BEFORE the index is created.
    for i in 0..30 {
        cluster
            .put("item", format!("item{i:02}").as_bytes(), &[(b("item_title"), b("preexisting"))])
            .unwrap();
    }
    let di = DiffIndex::new(cluster.clone());
    di.create_index(IndexSpec::single("title", "item", "item_title", IndexScheme::SyncFull), 4)
        .unwrap();
    let hits = di.get_by_index("item", "title", b"preexisting", 100).unwrap();
    assert_eq!(hits.len(), 30);
}

#[test]
fn range_query_by_index() {
    let (_d, cluster, di) = setup(IndexScheme::SyncFull);
    for (row, price) in
        [("a", "price010"), ("b", "price020"), ("c", "price030"), ("d", "price040")]
    {
        cluster.put("item", row.as_bytes(), &[(b("item_title"), b(price))]).unwrap();
    }
    let hits = di.range_by_index("item", "title", b"price015", b"price035", true, 100).unwrap();
    assert_eq!(rows_of(&hits), vec!["b", "c"]);
    let hits = di.range_by_index("item", "title", b"price010", b"price030", false, 100).unwrap();
    assert_eq!(rows_of(&hits), vec!["a", "b"]);
    let hits = di.range_by_index("item", "title", b"price010", b"price030", true, 100).unwrap();
    assert_eq!(rows_of(&hits), vec!["a", "b", "c"]);
}

#[test]
fn composite_index_roundtrip() {
    let dir = TempDir::new("diffidx").unwrap();
    let cluster =
        Cluster::new(dir.path(), ClusterOptions { num_servers: 1, lsm: small_lsm() }).unwrap();
    cluster.create_table("item", 2).unwrap();
    let di = DiffIndex::new(cluster.clone());
    di.create_index(
        IndexSpec::composite(
            "cat_price",
            "item",
            vec![b("category"), b("price")],
            IndexScheme::SyncFull,
        ),
        2,
    )
    .unwrap();
    // Row indexed only once BOTH columns are present.
    cluster.put("item", b"i1", &[(b("category"), b("toys"))]).unwrap();
    assert!(di.get_by_index("item", "cat_price", b"toys", 100).unwrap().is_empty());
    cluster.put("item", b"i1", &[(b("price"), b("0099"))]).unwrap();
    let hits = di.get_by_index("item", "cat_price", b"toys", 100).unwrap();
    assert_eq!(rows_of(&hits), vec!["i1"]);
    assert_eq!(hits[0].values, vec![Bytes::from("toys"), Bytes::from("0099")]);

    // Updating one component moves the entry.
    cluster.put("item", b"i1", &[(b("category"), b("games"))]).unwrap();
    assert!(di.get_by_index("item", "cat_price", b"toys", 100).unwrap().is_empty());
    let hits = di.get_by_index("item", "cat_price", b"games", 100).unwrap();
    assert_eq!(rows_of(&hits), vec!["i1"]);
}

#[test]
fn drop_index_stops_maintenance() {
    let (_d, cluster, di) = setup(IndexScheme::SyncFull);
    put_title(&cluster, "item1", "live");
    di.drop_index("item", "title").unwrap();
    assert!(di.get_by_index("item", "title", b"live", 10).is_err());
    // Further puts must not crash (observer detached).
    put_title(&cluster, "item2", "after-drop");
}

#[test]
fn duplicate_index_name_rejected() {
    let (_d, _cluster, di) = setup(IndexScheme::SyncFull);
    let err = di
        .create_index(IndexSpec::single("title", "item", "item_title", IndexScheme::SyncFull), 2)
        .unwrap_err();
    assert!(matches!(err, diff_index_core::IndexError::IndexExists(_)));
}

#[test]
fn two_indexes_different_schemes_coexist() {
    let (_d, cluster, di) = setup(IndexScheme::SyncFull);
    di.create_index(IndexSpec::single("price", "item", "item_price", IndexScheme::AsyncSimple), 4)
        .unwrap();
    cluster
        .put("item", b"item1", &[(b("item_title"), b("widget")), (b("item_price"), b("0042"))])
        .unwrap();
    // sync-full index: immediate.
    let hits = di.get_by_index("item", "title", b"widget", 10).unwrap();
    assert_eq!(rows_of(&hits), vec!["item1"]);
    // async index: after quiesce.
    di.quiesce("item");
    let hits = di.get_by_index("item", "price", b"0042", 10).unwrap();
    assert_eq!(rows_of(&hits), vec!["item1"]);
}

#[test]
fn put_batch_maintains_two_indexes_across_regions() {
    use diff_index_cluster::DispatchSnapshot;
    use diff_index_core::verify_index;
    use std::collections::BTreeMap;

    let (_d, cluster, di) = setup(IndexScheme::SyncFull);
    di.create_index(IndexSpec::single("color", "item", "item_color", IndexScheme::AsyncSimple), 4)
        .unwrap();
    // Row keys from '0' to 'z' spread over several of the four regions.
    let rows: Vec<String> = (0..16u8).map(|i| format!("{}-row", char::from(b'0' + i * 5))).collect();
    let servers: std::collections::BTreeSet<_> =
        rows.iter().map(|r| cluster.server_for_row("item", r.as_bytes()).unwrap()).collect();
    assert_eq!(servers.len(), 2, "the batch must span regions on both servers");
    let batch = |rows: &[String], title: &str, color: &str| -> Vec<(Bytes, Vec<(Bytes, Bytes)>)> {
        rows.iter()
            .map(|r| {
                let cols = vec![(b("item_title"), b(title)), (b("item_color"), b(color))];
                (b(r), cols)
            })
            .collect()
    };
    let mut model: BTreeMap<String, (&str, &str)> = BTreeMap::new();
    for (chunk, (title, color)) in rows.chunks(4).zip([("t0", "c0"), ("t1", "c1")].iter().cycle()) {
        cluster.put_batch("item", &batch(chunk, title, color)).unwrap();
        model.extend(chunk.iter().map(|r| (r.clone(), (*title, *color))));
    }

    // Drain, then hold the async index's worker so only sync-full
    // maintenance runs while the dispatch counters are measured.
    di.quiesce("item");
    let color_auq = std::sync::Arc::clone(di.index("item", "color").unwrap().auq());
    color_auq.set_stalled(true);
    let before = cluster.dispatch_metrics();
    cluster.put_batch("item", &batch(&rows[15..], "t2", "c2")).unwrap();
    let one = cluster.dispatch_metrics() - before;
    let half = &rows[..8];
    let before = cluster.dispatch_metrics();
    cluster.put_batch("item", &batch(half, "t3", "c3")).unwrap();
    let n = cluster.dispatch_metrics() - before;
    assert_eq!(one.puts, 1);
    assert!(one.index_ops() > 0, "a sync-full update costs index RPCs: {one:?}");
    assert_eq!(n, (0..half.len()).fold(DispatchSnapshot::default(), |acc, _| acc + one));
    color_auq.set_stalled(false);
    model.insert(rows[15].clone(), ("t2", "c2"));
    model.extend(half.iter().map(|r| (r.clone(), ("t3", "c3"))));

    di.quiesce("item");
    for name in ["title", "color"] {
        let spec = di.index("item", name).unwrap().spec.clone();
        let report = verify_index(&cluster, &spec).unwrap();
        assert!(report.is_clean(), "{name}: {report:?}");
    }
    for value in ["t0", "t1", "t2", "t3", "c0", "c1", "c2", "c3"] {
        let index = if value.starts_with('t') { "title" } else { "color" };
        let want: Vec<String> = model
            .iter()
            .filter(|(_, (t, c))| *t == value || *c == value)
            .map(|(r, _)| r.clone())
            .collect();
        let hits = di.get_by_index("item", index, value.as_bytes(), 100).unwrap();
        assert_eq!(rows_of(&hits), want, "{index} = {value}");
    }
}

#[test]
fn table2_io_costs_match_measured_counters() {
    // Measure (Base Put, Base Read, Index Put, Index Read) around one index
    // update and one index read, per scheme, and compare with the analytic
    // Table 2 (update row; deletes are counted within index_put as "1+1").
    for scheme in [IndexScheme::SyncFull, IndexScheme::SyncInsert, IndexScheme::AsyncSimple] {
        let (_d, cluster, di) = setup(scheme);
        let idx_table = di.index("item", "title").unwrap().spec.index_table();
        put_title(&cluster, "item1", "v1"); // make it an UPDATE below
        di.quiesce("item");

        let base0 = cluster.table_metrics("item").unwrap();
        let idx0 = cluster.table_metrics(&idx_table).unwrap();
        put_title(&cluster, "item1", "v2");
        di.quiesce("item");
        let base1 = cluster.table_metrics("item").unwrap();
        let idx1 = cluster.table_metrics(&idx_table).unwrap();

        let d_base = base1 - base0;
        let d_idx = idx1 - idx0;
        let expect = diff_index_core::update_cost(Some(scheme));
        assert_eq!(d_base.puts, expect.base_put as u64, "{scheme}: base puts");
        assert_eq!(d_base.gets, expect.base_read as u64, "{scheme}: base reads");
        assert_eq!(
            d_idx.puts + d_idx.deletes,
            expect.index_put as u64,
            "{scheme}: index puts+deletes"
        );

        // Read action.
        let base0 = cluster.table_metrics("item").unwrap();
        let idx0 = cluster.table_metrics(&idx_table).unwrap();
        let hits = di.get_by_index("item", "title", b"v2", 100).unwrap();
        let base1 = cluster.table_metrics("item").unwrap();
        let idx1 = cluster.table_metrics(&idx_table).unwrap();
        let k = hits.len() as u64;
        assert_eq!(k, 1);
        let d_base = base1 - base0;
        let d_idx = idx1 - idx0;
        let expect = diff_index_core::read_cost(scheme, k as u32);
        assert_eq!(d_idx.scans, expect.index_read as u64, "{scheme}: index reads");
        // sync-insert does K base gets (per indexed column); others none.
        assert_eq!(d_base.gets, expect.base_read as u64, "{scheme}: base double-checks");
    }
}

// --- batched index maintenance ------------------------------------------------

type BatchRow = (Bytes, Vec<(Bytes, Bytes)>);

fn titled(row: &str, title: &str) -> BatchRow {
    (b(row), vec![(b("item_title"), b(title))])
}

#[test]
fn put_batch_maintains_the_index_under_every_scheme() {
    use diff_index_core::verify_index;
    use std::collections::BTreeMap;

    for scheme in IndexScheme::all() {
        let (_d, cluster, di) = setup(scheme);
        // Row keys from '0' to 'z' spread over the four regions.
        let rows: Vec<String> =
            (0..16u8).map(|i| format!("{}-row", char::from(b'0' + i * 5))).collect();
        let servers: std::collections::BTreeSet<_> =
            rows.iter().map(|r| cluster.server_for_row("item", r.as_bytes()).unwrap()).collect();
        assert_eq!(servers.len(), 2, "the batch must span regions on both servers");
        let mut model: BTreeMap<String, String> = BTreeMap::new();
        let seed: Vec<_> = rows.iter().map(|r| titled(r, "t0")).collect();
        cluster.put_batch("item", &seed).unwrap();
        model.extend(rows.iter().map(|r| (r.clone(), "t0".to_string())));

        let mut batch: Vec<BatchRow> = Vec::new();
        // Updates on both servers.
        batch.extend(rows[..6].iter().map(|r| titled(r, "t1")));
        // One row twice in one batch: the second title wins.
        batch.push(titled(&rows[6], "t2"));
        batch.push(titled(&rows[6], "t3"));
        // Rows that do not touch the indexed column: an indexed row keeps
        // its entry, and a new unindexed row gets none.
        batch.push((b(&rows[7]), vec![(b("item_price"), b("0099"))]));
        batch.push((b("zz-price-only"), vec![(b("item_price"), b("0001"))]));
        // A new row.
        batch.push(titled("new-row", "t1"));
        cluster.put_batch("item", &batch).unwrap();
        model.extend(rows[..6].iter().map(|r| (r.clone(), "t1".to_string())));
        model.insert(rows[6].clone(), "t3".to_string());
        model.insert("new-row".to_string(), "t1".to_string());
        di.quiesce("item");

        let spec = di.index("item", "title").unwrap().spec.clone();
        let report = verify_index(&cluster, &spec).unwrap();
        assert_eq!(report.missing_count(), 0, "{scheme}: {report:?}");
        if scheme != IndexScheme::SyncInsert {
            assert!(report.is_clean(), "{scheme}: {report:?}");
        }
        for title in ["t0", "t1", "t2", "t3"] {
            let want: Vec<String> =
                model.iter().filter(|(_, t)| *t == title).map(|(r, _)| r.clone()).collect();
            let hits = di.get_by_index("item", "title", title.as_bytes(), 100).unwrap();
            assert_eq!(rows_of(&hits), want, "{scheme}: title = {title}");
        }
    }
}

#[test]
fn sync_insert_put_batch_writes_one_index_wal_record_per_index_region() {
    // The layer the batch path moves: a 256-row batch costs each index
    // region one WAL record and one fsync, not one per row.
    let dir = TempDir::new("diffidx").unwrap();
    let lsm = LsmOptions { wal_sync: true, version_retention: u64::MAX, ..LsmOptions::default() };
    let cluster = Cluster::new(dir.path(), ClusterOptions { num_servers: 2, lsm }).unwrap();
    cluster.create_table("item", 4).unwrap();
    let di = DiffIndex::new(cluster.clone());
    let index_regions = 4;
    di.create_index(
        IndexSpec::single("title", "item", "item_title", IndexScheme::SyncInsert),
        index_regions,
    )
    .unwrap();
    let index_table = di.index("item", "title").unwrap().spec.index_table();
    // Titles from '0' to 'o' spread the entries over the index regions.
    let title = |i: u32| format!("{}-title", char::from(b'0' + (i % 64) as u8));
    let batch: Vec<_> = (0..256u32).map(|i| titled(&format!("row{i:03}"), &title(i))).collect();

    let before = cluster.table_metrics(&index_table).unwrap();
    cluster.put_batch("item", &batch).unwrap();
    let d = cluster.table_metrics(&index_table).unwrap() - before;
    assert_eq!(d.puts, 256, "one index entry per row");
    assert!(
        d.wal_appends <= index_regions as u64 && d.wal_fsyncs <= index_regions as u64,
        "a 256-row batch took {} index WAL records and {} fsyncs",
        d.wal_appends,
        d.wal_fsyncs
    );
    let hits = di.get_by_index("item", "title", b"0-title", 100).unwrap();
    assert_eq!(hits.len(), 4);
}

/// A sync-full index whose observer arms one WAL-append failure just before
/// each batch's index writes, so exactly one index region group fails.
struct FailOneIndexGroup(std::sync::Arc<diff_index_core::observers::IndexObserver>);

impl diff_index_cluster::TableObserver for FailOneIndexGroup {
    fn post_put(
        &self,
        cluster: &Cluster,
        table: &str,
        row: &[u8],
        columns: &[(Bytes, Bytes)],
        ts: u64,
    ) -> diff_index_cluster::Result<()> {
        self.0.post_put(cluster, table, row, columns, ts)
    }

    fn post_delete(
        &self,
        cluster: &Cluster,
        table: &str,
        row: &[u8],
        columns: &[Bytes],
        ts: u64,
    ) -> diff_index_cluster::Result<()> {
        self.0.post_delete(cluster, table, row, columns, ts)
    }

    fn post_put_batch(
        self: std::sync::Arc<Self>,
        cluster: &Cluster,
        table: &str,
        rows: &[BatchRow],
        ts: &[u64],
    ) -> diff_index_cluster::Result<()> {
        cluster.faults().arm(diff_index_cluster::FaultPoint::WalAppend, 1);
        std::sync::Arc::clone(&self.0).post_put_batch(cluster, table, rows, ts)
    }
}

#[test]
fn sync_full_put_batch_retries_only_the_failed_index_region_group() {
    use diff_index_cluster::encoding::row_start;
    use diff_index_core::encoding::index_row;
    use diff_index_core::observers::IndexObserver;
    use diff_index_core::verify_index;
    use std::sync::Arc;

    let dir = TempDir::new("diffidx").unwrap();
    let cluster =
        Cluster::new(dir.path(), ClusterOptions { num_servers: 2, lsm: small_lsm() }).unwrap();
    cluster.create_table("item", 4).unwrap();
    let spec = Arc::new(IndexSpec::single("title", "item", "item_title", IndexScheme::SyncFull));
    cluster.create_table(&spec.index_table(), 4).unwrap();
    let observer = Arc::new(IndexObserver::new(&cluster, Arc::clone(&spec)));
    let auq = Arc::clone(observer.auq());
    cluster.register_observer("item", Arc::new(FailOneIndexGroup(observer))).unwrap();

    // Titles whose first bytes fall in all four index regions.
    let title = |i: usize, gen: u8| -> Bytes {
        Bytes::from(vec![(i as u8 % 4) * 0x40 + 0x20, b'-', gen, b'0' + i as u8])
    };
    let rows: Vec<Bytes> = (0..8).map(|i| b(&format!("row{i}"))).collect();
    for (i, row) in rows.iter().enumerate() {
        cluster.put("item", row, &[(b("item_title"), title(i, b'a'))]).unwrap();
    }
    // Hold the retry queue so the retries can be counted before they run.
    auq.set_stalled(true);
    let update: Vec<BatchRow> = rows
        .iter()
        .enumerate()
        .map(|(i, row)| (row.clone(), vec![(b("item_title"), title(i, b'b'))]))
        .collect();
    let stamps = cluster.put_batch("item", &update).expect("the batch is acked");

    // Each row's SU2 put and SU4 delete, and whether it landed.
    let index_table = spec.index_table();
    let present = |key: &Bytes| cluster.get(&index_table, key, b"", u64::MAX).unwrap().is_some();
    let regions = cluster.region_specs(&index_table).unwrap();
    let region_of = |key: &Bytes| regions.iter().find(|r| r.contains(&row_start(key))).unwrap().id;
    let mut lost = Vec::new();
    let mut landed = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let new = index_row(&[title(i, b'b')], row);
        let old = index_row(&[title(i, b'a')], row);
        (if present(&new) { &mut landed } else { &mut lost }).push(region_of(&new));
        (if present(&old) { &mut lost } else { &mut landed }).push(region_of(&old));
    }
    assert!(!lost.is_empty(), "the armed failure must hit one index region group");
    assert!(lost.iter().all(|r| *r == lost[0]), "only one group fails: {lost:?}");
    assert!(!landed.contains(&lost[0]), "the failed group fails whole");
    assert_eq!(auq.depth(), lost.len(), "one retry per entry of the failed group");
    assert!(stamps.iter().all(|&ts| ts > 0));

    auq.set_stalled(false);
    auq.wait_idle();
    let report = verify_index(&cluster, &spec).unwrap();
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn aps_run_across_index_regions_never_runs_a_queued_flush() {
    // The APS writes a run's index regions in parallel on the cluster's
    // fan-out pool while the run counts as in flight. If it ran a queued
    // job meanwhile — here a base-table flush, whose drain waits for that
    // very run — it would deadlock.
    use std::sync::{mpsc, Arc, RwLock};
    use std::time::Duration;

    let (_d, cluster, di) = setup(IndexScheme::AsyncSimple);
    let auq = Arc::clone(di.index("item", "title").unwrap().auq());
    // Occupy every pool worker until the gate opens.
    let gate = Arc::new(RwLock::new(()));
    let closed = gate.write().unwrap();
    let started = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let workers = cluster.fanout().workers();
    for _ in 0..workers {
        let (gate, started) = (Arc::clone(&gate), Arc::clone(&started));
        cluster.fanout().spawn(move || {
            started.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            drop(gate.read().unwrap());
        });
    }
    while started.load(std::sync::atomic::Ordering::SeqCst) < workers {
        std::thread::yield_now();
    }

    // A run of updates whose entries fall in all four index regions.
    auq.set_stalled(true);
    for i in 0..8u8 {
        let title = Bytes::from(vec![(i % 4) * 0x40 + 0x20, b'0' + i]);
        cluster.put("item", format!("row{i}").as_bytes(), &[(b("item_title"), title)]).unwrap();
    }
    let (flushed_tx, flushed) = mpsc::channel();
    let c = cluster.clone();
    cluster.fanout().spawn(move || {
        let _ = flushed_tx.send(c.flush_table("item"));
    });
    auq.set_stalled(false);

    let (idle_tx, idle) = mpsc::channel();
    let waiter = Arc::clone(&auq);
    std::thread::spawn(move || {
        waiter.wait_idle();
        let _ = idle_tx.send(());
    });
    idle.recv_timeout(Duration::from_secs(20)).expect("the APS run never finished");
    assert_eq!(auq.metrics().completed.load(std::sync::atomic::Ordering::Relaxed), 8);

    drop(closed);
    flushed
        .recv_timeout(Duration::from_secs(20))
        .expect("the queued flush never finished")
        .unwrap();
    let report = diff_index_core::verify_index(&cluster, &di.index("item", "title").unwrap().spec)
        .unwrap();
    assert!(report.is_clean(), "{report:?}");
}
