//! The indexed columns' column group on the real stack: an index puts its
//! columns in SSTables of their own at every flush and compaction of its
//! base table, while every read and the on-disk format stay as they were.

use bytes::Bytes;
use diff_index_cluster::encoding::column_of;
use diff_index_cluster::{Cluster, ClusterOptions, RowGroup};
use diff_index_core::{verify_index, DiffIndex, IndexScheme, IndexSpec};
use diff_index_lsm::sstable::Table;
use diff_index_lsm::{LsmOptions, TableOptions};
use std::path::Path;
use tempdir_lite::TempDir;

const ROWS: usize = 60;

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

fn opts(servers: usize) -> ClusterOptions {
    ClusterOptions {
        num_servers: servers,
        lsm: LsmOptions {
            memtable_flush_bytes: usize::MAX,
            table: TableOptions { block_size: 512, bloom_bits_per_key: 10 },
            compaction_trigger: 0,
            version_retention: u64::MAX,
            ..LsmOptions::default()
        },
    }
}

fn title(i: usize, ver: usize) -> Bytes {
    b(&format!("title{:02}-{ver}", i % 7))
}

/// Row `i` at version `ver`: a title plus two wider filler columns.
fn put_rows(cluster: &Cluster, rows: std::ops::Range<usize>, ver: usize) {
    for i in rows {
        let cols = [
            (b("filler_a"), Bytes::from(vec![b'a' + (i % 26) as u8; 80])),
            (b("item_title"), title(i, ver)),
            (b("zfiller"), Bytes::from(vec![b'z'; 80])),
        ];
        cluster.put("item", format!("item{i:03}").as_bytes(), &cols).unwrap();
    }
}

fn all_rows(cluster: &Cluster) -> Vec<RowGroup> {
    cluster.scan_rows("item", b"", None, u64::MAX, usize::MAX).unwrap()
}

/// For each live SSTable of `table`: does it hold title cells, other
/// cells? (Only the manifest's tables exist once flushes and compactions
/// have finished.)
fn sstables(root: &Path, table: &str) -> Vec<(bool, bool)> {
    let mut out = Vec::new();
    for region in std::fs::read_dir(root.join(table)).unwrap() {
        for f in std::fs::read_dir(region.unwrap().path()).unwrap() {
            let path = f.unwrap().path();
            if path.extension().is_some_and(|e| e == "sst") {
                let t = Table::open(&path, 0, None).unwrap();
                let (mut titles, mut others) = (false, false);
                for cell in t.iter_from(None) {
                    let cell = cell.unwrap();
                    match column_of(&cell.key.user_key).unwrap() {
                        b"item_title" => titles = true,
                        _ => others = true,
                    }
                }
                out.push((titles, others));
            }
        }
    }
    out
}

fn all_split(tables: &[(bool, bool)]) -> bool {
    !tables.is_empty() && tables.iter().all(|&(titles, others)| titles != others)
}

/// Every row's title is found through the index, and the index agrees with
/// the base table.
fn check_index(cluster: &Cluster, di: &DiffIndex, ver: usize) {
    di.quiesce("item");
    for i in 0..ROWS {
        let hits = di.get_by_index("item", "title", &title(i, ver), 100).unwrap();
        assert!(hits.iter().any(|h| h.row == b(&format!("item{i:03}"))), "row {i} not found");
    }
    let spec = di.index("item", "title").unwrap().spec.clone();
    let report = verify_index(cluster, &spec).unwrap();
    assert_eq!(report.missing_count(), 0, "{:?}", report.divergences);
}

#[test]
fn an_index_on_a_table_with_sstables_splits_them_at_the_next_compaction() {
    let dir = TempDir::new("groups").unwrap();
    let cluster = Cluster::new(dir.path(), opts(1)).unwrap();
    cluster.create_table("item", 2).unwrap();
    put_rows(&cluster, 0..ROWS, 0);
    cluster.flush_table("item").unwrap();
    let mixed = sstables(dir.path(), "item");
    assert!(mixed.iter().all(|&t| t == (true, true)), "no index yet: one mixed table per flush");
    let before = all_rows(&cluster);

    let di = DiffIndex::new(cluster.clone());
    di.create_index(IndexSpec::single("title", "item", "item_title", IndexScheme::SyncFull), 2)
        .unwrap();
    assert_eq!(all_rows(&cluster), before, "the mixed tables read as before");
    check_index(&cluster, &di, 0);

    // New flushes split; the old mixed tables stay until compacted.
    put_rows(&cluster, 0..ROWS / 2, 1);
    cluster.flush_table("item").unwrap();
    let tables = sstables(dir.path(), "item");
    assert_eq!(tables.iter().filter(|&&t| t == (true, true)).count(), mixed.len());
    assert_eq!(tables.len(), 3 * mixed.len(), "each region: one mixed table, then two split");

    cluster.compact_table("item").unwrap();
    let tables = sstables(dir.path(), "item");
    assert!(all_split(&tables), "{tables:?}");
    assert_eq!(tables.len(), 2 * mixed.len());
    let rows = all_rows(&cluster);
    assert_eq!(rows.len(), ROWS);
    for (i, (row, cols)) in rows.iter().enumerate() {
        assert_eq!(*row, b(&format!("item{i:03}")));
        let want = title(i, usize::from(i < ROWS / 2));
        assert_eq!(cols.iter().find(|(c, _)| c == "item_title").unwrap().1.value, want);
        assert_eq!(cols.len(), 3);
        let got = cluster.get("item", row, b"zfiller", u64::MAX).unwrap().unwrap();
        assert_eq!(got.value, Bytes::from(vec![b'z'; 80]));
    }
    put_rows(&cluster, ROWS / 2..ROWS, 1);
    check_index(&cluster, &di, 1);
}

#[test]
fn a_region_reopened_by_recovery_keeps_splitting_its_flushes() {
    let dir = TempDir::new("groups").unwrap();
    let cluster = Cluster::new(dir.path(), opts(2)).unwrap();
    cluster.create_table("item", 2).unwrap();
    let di = DiffIndex::new(cluster.clone());
    di.create_index(IndexSpec::single("title", "item", "item_title", IndexScheme::SyncInsert), 2)
        .unwrap();
    put_rows(&cluster, 0..ROWS, 0);
    cluster.flush_table("item").unwrap();
    put_rows(&cluster, 0..ROWS, 1);

    // §5.3: the dead server's regions reopen on the survivor and replay
    // their WAL into the memtable; its next flush must split as well.
    let dead = cluster.server_for_row("item", b"item000").unwrap();
    cluster.crash_server(dead);
    cluster.recover().unwrap();
    assert!(cluster.recovery_stats().regions_recovered > 0);
    cluster.flush_table("item").unwrap();
    let tables = sstables(dir.path(), "item");
    assert!(all_split(&tables), "{tables:?}");
    // Every row sorts into the first region, the one that moved.
    assert_eq!(tables.len(), 4, "two flushes, two groups");
    assert_eq!(all_rows(&cluster).len(), ROWS);
    check_index(&cluster, &di, 1);
}

#[test]
fn a_data_directory_written_without_groups_opens_and_reads_the_same() {
    // A cluster with no index writes exactly what every earlier version
    // wrote: one mixed table per flush, the same manifest and WAL.
    let dir = TempDir::new("groups").unwrap();
    let before = {
        let cluster = Cluster::new(dir.path(), opts(1)).unwrap();
        cluster.create_table("item", 2).unwrap();
        put_rows(&cluster, 0..ROWS, 0);
        cluster.flush_table("item").unwrap();
        put_rows(&cluster, 0..ROWS / 3, 1); // left in the WAL
        all_rows(&cluster)
    };
    assert!(sstables(dir.path(), "item").iter().all(|&t| t == (true, true)));

    let cluster = Cluster::new(dir.path(), opts(1)).unwrap();
    cluster.create_table("item", 2).unwrap();
    assert_eq!(all_rows(&cluster), before, "reopened without an index");
    let di = DiffIndex::new(cluster.clone());
    di.create_index(IndexSpec::single("title", "item", "item_title", IndexScheme::SyncFull), 2)
        .unwrap();
    assert_eq!(all_rows(&cluster), before, "reopened with an index");
    cluster.flush_table("item").unwrap();
    cluster.compact_table("item").unwrap();
    assert!(all_split(&sstables(dir.path(), "item")));
    assert_eq!(all_rows(&cluster), before, "after the split");
    let spec = di.index("item", "title").unwrap().spec.clone();
    assert!(verify_index(&cluster, &spec).unwrap().is_clean());
}
