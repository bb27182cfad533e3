//! Tests for the cluster APIs added during Diff-Index development:
//! raw row-range scans, versioned cell reads, server restart, and region
//! introspection, and batched point reads.

use bytes::Bytes;
use diff_index_cluster::{Cluster, ClusterError, ClusterOptions};
use tempdir_lite::TempDir;

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

fn cluster(n: usize) -> (TempDir, Cluster) {
    let dir = TempDir::new("capi").unwrap();
    let c = Cluster::new(dir.path(), ClusterOptions { num_servers: n, ..Default::default() })
        .unwrap();
    (dir, c)
}

#[test]
fn scan_rows_range_includes_extensions_of_start() {
    let (_d, c) = cluster(2);
    c.create_table("t", 4).unwrap();
    for r in ["aa", "aab", "ab", "b", "ba"] {
        c.put("t", r.as_bytes(), &[(b("c"), b("v"))]).unwrap();
    }
    // Plain byte-string range semantics: "aa" <= row < "b".
    let rows = c.scan_rows_range("t", b"aa", Some(b"b"), u64::MAX, 100).unwrap();
    let got: Vec<&str> =
        rows.iter().map(|(r, _)| std::str::from_utf8(r).unwrap()).collect();
    assert_eq!(got, vec!["aa", "aab", "ab"]);
    // Unbounded end.
    let rows = c.scan_rows_range("t", b"b", None, u64::MAX, 100).unwrap();
    assert_eq!(rows.len(), 2);
    // scan_rows shares the same visible result here (both include
    // extensions of the start row and exclude "b" and beyond).
    let rows = c.scan_rows("t", b"aa", Some(b"b"), u64::MAX, 100).unwrap();
    assert_eq!(rows.len(), 3);
}

#[test]
fn get_cell_versioned_exposes_tombstones() {
    let (_d, c) = cluster(1);
    c.create_table("t", 1).unwrap();
    assert!(c.get_cell_versioned("t", b"r", b"c", u64::MAX).unwrap().is_none());
    let t1 = c.put("t", b"r", &[(b("c"), b("v"))]).unwrap();
    let (ts, tomb) = c.get_cell_versioned("t", b"r", b"c", u64::MAX).unwrap().unwrap();
    assert_eq!(ts, t1);
    assert!(!tomb);
    let t2 = c.delete("t", b"r", &[b("c")]).unwrap();
    let (ts, tomb) = c.get_cell_versioned("t", b"r", b"c", u64::MAX).unwrap().unwrap();
    assert_eq!(ts, t2);
    assert!(tomb, "tombstone must be visible to the versioned read");
    // Snapshot before the delete still sees the put.
    let (ts, tomb) = c.get_cell_versioned("t", b"r", b"c", t2 - 1).unwrap().unwrap();
    assert_eq!((ts, tomb), (t1, false));
}

#[test]
fn restarted_server_rejoins_and_recovery_clock_is_monotonic() {
    let (_d, c) = cluster(2);
    c.create_table("t", 2).unwrap();
    let mut last_ts = 0;
    for i in 0..50u8 {
        last_ts = c.put("t", &[i.wrapping_mul(5), b'k'], &[(b("c"), b("v"))]).unwrap().max(last_ts);
    }
    c.crash_server(1);
    c.recover().unwrap();
    c.restart_server(1);
    assert_eq!(c.servers(), vec![0, 1]);
    // Every post-recovery write must carry a timestamp beyond anything
    // written before the crash (the clock-advance fix).
    for i in 0..50u8 {
        let ts = c.put("t", &[i.wrapping_mul(5), b'k'], &[(b("c"), b("w"))]).unwrap();
        assert!(ts > last_ts, "post-recovery ts {ts} must exceed pre-crash {last_ts}");
    }
    // And the new values win everywhere.
    for i in 0..50u8 {
        let got = c.get("t", &[i.wrapping_mul(5), b'k'], b"c", u64::MAX).unwrap().unwrap();
        assert_eq!(got.value, Bytes::from("w"));
    }
}

#[test]
fn region_specs_cover_the_keyspace_in_order() {
    let (_d, c) = cluster(3);
    c.create_table("t", 6).unwrap();
    let specs = c.region_specs("t").unwrap();
    assert_eq!(specs.len(), 6);
    assert!(specs[0].start.is_empty());
    assert!(specs[5].end.is_none());
    for w in specs.windows(2) {
        assert_eq!(w[0].end.as_ref().unwrap(), &w[1].start, "regions must tile");
    }
}

#[test]
fn rpc_counter_grows_with_fanout() {
    let (_d, c) = cluster(2);
    c.create_table("t", 8).unwrap();
    let before = c.dispatch_metrics().total();
    c.put("t", b"r", &[(b("c"), b("v"))]).unwrap(); // 1 region op
    let after_put = c.dispatch_metrics().total();
    assert_eq!(after_put - before, 1);
    c.scan_rows("t", b"", None, u64::MAX, 100).unwrap(); // fans out to all 8
    assert_eq!(c.dispatch_metrics().total() - after_put, 8);
}

/// Four rows, one per region of a 4-region table on two servers.
fn rows_in_four_regions(c: &Cluster) -> Vec<Vec<u8>> {
    c.create_table("t", 4).unwrap();
    [0x01u8, 0x41, 0x81, 0xc1].iter().map(|&first| vec![first, b'r']).collect()
}

#[test]
fn get_many_answers_in_input_order_across_regions() {
    let (_d, c) = cluster(2);
    let rows = rows_in_four_regions(&c);
    assert_ne!(c.server_for_row("t", &rows[0]).unwrap(), c.server_for_row("t", &rows[1]).unwrap());
    let mut first = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        first.push(c.put("t", row, &[(b("c"), b(&format!("v{i}")))]).unwrap());
    }
    c.put("t", &rows[0], &[(b("c"), b("newer"))]).unwrap();
    c.delete("t", &rows[2], &[b("c")]).unwrap();
    let cells: Vec<(&[u8], &[u8])> = vec![
        (&rows[3], b"c"),
        (&rows[0], b"c"),
        (&rows[2], b"c"),
        (&rows[1], b"missing"),
        (&rows[0], b"c"),
        (&rows[1], b"c"),
    ];
    for ts in [u64::MAX, first[3]] {
        let per_cell: Vec<_> =
            cells.iter().map(|(row, col)| c.get("t", row, col, ts).unwrap()).collect();
        let before = c.dispatch_metrics();
        let batch = c.get_many("t", &cells, ts).unwrap();
        assert_eq!((c.dispatch_metrics() - before).gets, cells.len() as u64, "one get per cell");
        assert_eq!(batch, per_cell, "read at {ts}");
    }
    let values = |ts| -> Vec<Option<Bytes>> {
        c.get_many("t", &cells, ts).unwrap().into_iter().map(|v| v.map(|v| v.value)).collect()
    };
    let want = [Some(b("v3")), Some(b("newer")), None, None, Some(b("newer")), Some(b("v1"))];
    assert_eq!(values(u64::MAX), want);
    let want = [Some(b("v3")), Some(b("v0")), Some(b("v2")), None, Some(b("v0")), Some(b("v1"))];
    assert_eq!(values(first[3]), want);
}

#[test]
fn get_many_fails_when_a_touched_server_is_down() {
    let (_d, c) = cluster(2);
    let rows = rows_in_four_regions(&c);
    for row in &rows {
        c.put("t", row, &[(b("c"), b("v"))]).unwrap();
    }
    let down = c.server_for_row("t", &rows[1]).unwrap();
    let up: Vec<&[u8]> =
        rows.iter().filter(|r| c.server_for_row("t", r).unwrap() != down).map(|r| &r[..]).collect();
    assert!(!up.is_empty());
    c.crash_server(down);
    let before = c.dispatch_metrics();
    let cells: Vec<(&[u8], &[u8])> = rows.iter().map(|r| (&r[..], &b"c"[..])).collect();
    let err = c.get_many("t", &cells, u64::MAX).unwrap_err();
    assert!(matches!(err, ClusterError::ServerDown(s) if s == down), "{err:?}");
    assert_eq!((c.dispatch_metrics() - before).gets, 0, "a failed batch dispatches nothing");
    // Cells on live servers alone still read.
    let cells: Vec<(&[u8], &[u8])> = up.iter().map(|&r| (r, &b"c"[..])).collect();
    let got = c.get_many("t", &cells, u64::MAX).unwrap();
    assert!(got.iter().all(|v| v.as_ref().is_some_and(|v| v.value == b("v"))));
}
