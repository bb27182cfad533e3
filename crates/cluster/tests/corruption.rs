//! On-disk corruption must surface as a *typed* error at the cluster
//! boundary — never a panic, never silently wrong data.
//!
//! Every SSTable block carries a CRC-32 that is verified on decode
//! (`crates/lsm`); this test proves the verification survives the trip up
//! the stack: a bit flipped in a flushed block turns reads and scans of
//! that region into `ClusterError::Storage(LsmError::Corruption)`, classified
//! non-retryable (resending the request cannot help), while the write path
//! (WAL + memtable) stays available.

use bytes::Bytes;
use diff_index_cluster::{Cluster, ClusterError, ClusterOptions};
use diff_index_lsm::LsmError;
use std::path::{Path, PathBuf};

fn find_sstables(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            find_sstables(&path, out);
        } else if path.extension().is_some_and(|e| e == "sst") {
            out.push(path);
        }
    }
}

#[test]
fn flipped_block_bit_surfaces_as_typed_corruption() {
    let dir = tempdir_lite::TempDir::new("corrupt").unwrap();
    let cluster = Cluster::new(dir.path(), ClusterOptions::default()).unwrap();
    cluster.create_table("t", 2).unwrap();
    for i in 0..8 {
        cluster
            .put(
                "t",
                format!("row{i}").as_bytes(),
                &[(Bytes::from("c"), Bytes::from(format!("v{i}")))],
            )
            .unwrap();
    }
    cluster.flush_table("t").unwrap();

    // Flip one bit in the first data block of every flushed table file.
    // Data blocks start at offset 0; their CRC is checked on decode, not at
    // open, so the damage is only discovered by the read below.
    let mut tables = Vec::new();
    find_sstables(dir.path(), &mut tables);
    assert!(!tables.is_empty(), "flush must have produced sstables");
    for path in &tables {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[0] ^= 0x01;
        std::fs::write(path, &bytes).unwrap();
    }

    let mut corrupt_reads = 0;
    for i in 0..8 {
        match cluster.get("t", format!("row{i}").as_bytes(), b"c", u64::MAX) {
            Err(e @ ClusterError::Storage(LsmError::Corruption(_))) => {
                assert!(
                    e.to_string().contains("checksum"),
                    "corruption error should name the failed check: {e}"
                );
                assert!(!e.is_retryable(), "corruption must not be classified retryable");
                corrupt_reads += 1;
            }
            Err(e) => panic!("corrupted block surfaced the wrong error type: {e}"),
            Ok(v) => panic!("corrupted block served data: {v:?}"),
        }
    }
    assert!(corrupt_reads > 0);

    // A scan over the damaged regions must fail the same way rather than
    // return the rows of the undamaged blocks as if they were all there.
    match cluster.scan_rows("t", b"", None, u64::MAX, usize::MAX) {
        Err(ClusterError::Storage(LsmError::Corruption(_))) => {}
        other => panic!("scan over a corrupted block must report corruption: {other:?}"),
    }

    // The write path does not touch the damaged blocks: new writes (WAL +
    // memtable) still ack, so the region is degraded, not bricked.
    cluster
        .put("t", b"row0", &[(Bytes::from("c"), Bytes::from("fresh"))])
        .expect("writes must survive read-path corruption");
}
