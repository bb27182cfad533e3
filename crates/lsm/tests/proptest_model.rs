//! Property-based model checking of the LSM engine: under arbitrary
//! interleavings of puts, deletes, flushes, compactions and crash/reopen
//! cycles, the engine must behave exactly like a sorted map of
//! (key → newest visible version), for both point reads and scans, at the
//! latest snapshot and at historical snapshots, one key at a time and in
//! batches. An engine that splits its tables into column groups must
//! answer exactly like one that does not.

use bytes::Bytes;
use diff_index_lsm::{BlockCache, KeyGroups, LsmOptions, LsmTree, TableOptions};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use tempdir_lite::TempDir;

#[derive(Debug, Clone)]
enum Op {
    Put { key: u8, value: u16 },
    Delete { key: u8 },
    Flush,
    Compact,
    CrashReopen,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (any::<u8>(), any::<u16>()).prop_map(|(key, value)| Op::Put { key: key % 24, value }),
        2 => any::<u8>().prop_map(|key| Op::Delete { key: key % 24 }),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
        1 => Just(Op::CrashReopen),
    ]
}

fn opts() -> LsmOptions {
    LsmOptions {
        memtable_flush_bytes: 512, // tiny: frequent auto-flushes
        table: TableOptions { block_size: 128, bloom_bits_per_key: 10 },
        wal_sync: false,
        block_cache: Some(Arc::new(BlockCache::new(64 * 1024))),
        compaction_trigger: 3,
        version_retention: u64::MAX, // keep all versions: snapshots stay valid
    }
}

fn key_bytes(k: u8) -> Vec<u8> {
    format!("key{k:03}").into_bytes()
}

/// Model: per key, all versions (ts → Option<value>; None = tombstone).
type Model = BTreeMap<Vec<u8>, BTreeMap<u64, Option<Bytes>>>;

fn model_get(model: &Model, key: &[u8], ts: u64) -> Option<Bytes> {
    model
        .get(key)?
        .range(..=ts)
        .next_back()
        .and_then(|(_, v)| v.clone())
}

/// 48 cases, or `PROPTEST_CASES` when set (the nightly deep sweep).
fn config() -> ProptestConfig {
    let base = ProptestConfig::default();
    let cases = if std::env::var_os("PROPTEST_CASES").is_some() { base.cases } else { 48 };
    ProptestConfig { cases, ..base }
}

/// Open `dir`; with `grouped`, its keys go to three column groups.
fn open(dir: &TempDir, grouped: bool) -> LsmTree {
    let db = LsmTree::open(dir.path(), opts()).unwrap();
    if grouped {
        db.set_groups_hook(Box::new(|| {
            Some(Arc::new(|key: &[u8]| usize::from(key.last().unwrap() % 3)) as KeyGroups)
        }));
    }
    db
}

proptest! {
    #![proptest_config(config())]

    #[test]
    fn engine_matches_model(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let dir = TempDir::new("lsm-prop").unwrap();
        let mut db = LsmTree::open(dir.path(), opts()).unwrap();
        let mut model: Model = BTreeMap::new();
        let mut ts = 100u64;
        let mut snapshots: Vec<u64> = Vec::new();

        for op in &ops {
            match op {
                Op::Put { key, value } => {
                    ts += 1;
                    let k = key_bytes(*key);
                    let v = Bytes::from(format!("v{value}"));
                    db.put(k.clone(), ts, v.clone()).unwrap();
                    model.entry(k).or_default().insert(ts, Some(v));
                    if ts.is_multiple_of(7) {
                        snapshots.push(ts);
                    }
                }
                Op::Delete { key } => {
                    ts += 1;
                    let k = key_bytes(*key);
                    db.delete(k.clone(), ts).unwrap();
                    model.entry(k).or_default().insert(ts, None);
                }
                Op::Flush => db.flush().unwrap(),
                Op::Compact => db.compact().unwrap(),
                Op::CrashReopen => {
                    db.simulate_crash();
                    db = LsmTree::open(dir.path(), opts()).unwrap();
                }
            }
        }

        // Point reads at the latest snapshot match the model.
        for k in 0..24u8 {
            let key = key_bytes(k);
            let got = db.get(&key, u64::MAX).unwrap().map(|v| v.value);
            let want = model_get(&model, &key, u64::MAX);
            prop_assert_eq!(got, want, "latest get({:?})", String::from_utf8_lossy(&key));
        }

        // Historical snapshot reads match too (multi-versioning).
        for &snap in snapshots.iter().take(5) {
            for k in 0..24u8 {
                let key = key_bytes(k);
                let got = db.get(&key, snap).unwrap().map(|v| v.value);
                let want = model_get(&model, &key, snap);
                prop_assert_eq!(got, want, "get({:?}, {})", String::from_utf8_lossy(&key), snap);
            }
        }

        // One batch answers like the per-key gets, duplicates and keys the
        // ops never write included, and counts one get per key as they do.
        let keys: Vec<Vec<u8>> = (0..28u8).chain([3, 3, 17]).map(key_bytes).collect();
        for snap in snapshots.iter().take(5).copied().chain([u64::MAX]) {
            let before = db.metrics().snapshot();
            let per_key: Vec<_> = keys.iter().map(|k| db.get_versioned(k, snap).unwrap()).collect();
            let mid = db.metrics().snapshot();
            let batch = db.get_many(&keys, snap).unwrap();
            let after = db.metrics().snapshot();
            prop_assert_eq!(&batch, &per_key, "get_many at {}", snap);
            for (key, cell) in keys.iter().zip(batch) {
                let got = cell.and_then(|c| c.into_visible()).map(|v| v.value);
                prop_assert_eq!(got, model_get(&model, key, snap), "get_many at {}", snap);
            }
            let (one, many) = (mid - before, after - mid);
            prop_assert_eq!(many.gets, keys.len() as u64);
            prop_assert_eq!(
                (many.gets, many.tables_probed, many.tables_skipped),
                (one.gets, one.tables_probed, one.tables_skipped)
            );
        }

        // Full scan equals the model's visible view, in order.
        let scanned: Vec<(Bytes, Bytes)> = db
            .scan(b"", None, u64::MAX, usize::MAX)
            .unwrap()
            .into_iter()
            .map(|(k, v)| (k, v.value))
            .collect();
        let expected: Vec<(Bytes, Bytes)> = model
            .iter()
            .filter_map(|(k, versions)| {
                model_get(&model, k, u64::MAX).map(|v| (Bytes::from(k.clone()), v))
                    .or({ let _ = versions; None })
            })
            .collect();
        prop_assert_eq!(scanned, expected, "full scan");

        // Bounded scan with a limit is a prefix of the full scan.
        let bounded = db.scan(b"key005", Some(b"key015"), u64::MAX, 4).unwrap();
        let expected_bounded: Vec<(Bytes, Bytes)> = model
            .range(key_bytes(5)..key_bytes(15))
            .filter_map(|(k, _)| model_get(&model, k, u64::MAX).map(|v| (Bytes::from(k.clone()), v)))
            .take(4)
            .collect();
        let got_bounded: Vec<(Bytes, Bytes)> =
            bounded.into_iter().map(|(k, v)| (k, v.value)).collect();
        prop_assert_eq!(got_bounded, expected_bounded, "bounded scan");
    }

    #[test]
    fn versioned_reads_see_exact_version(
        puts in prop::collection::vec((0u8..8, any::<u16>()), 1..40)
    ) {
        let dir = TempDir::new("lsm-prop2").unwrap();
        let db = LsmTree::open(dir.path(), opts()).unwrap();
        let mut history: Vec<(Vec<u8>, u64, Bytes)> = Vec::new();
        let mut ts = 10u64;
        for (k, v) in &puts {
            ts += 1;
            let key = key_bytes(*k);
            let val = Bytes::from(format!("{v}"));
            db.put(key.clone(), ts, val.clone()).unwrap();
            history.push((key, ts, val));
        }
        db.flush().unwrap();
        // Reading at each historical write's timestamp returns that write
        // (it was the newest version for its key at that instant).
        let mut newest: BTreeMap<(Vec<u8>, u64), bool> = BTreeMap::new();
        for (key, ts, _) in &history {
            newest.insert((key.clone(), *ts), true);
        }
        for (key, wts, val) in &history {
            let got = db.get(key, *wts).unwrap().unwrap();
            // The version visible at wts is the write at wts itself.
            prop_assert_eq!(got.ts, *wts);
            prop_assert_eq!(got.value, val.clone());
        }
    }

    #[test]
    fn grouped_engine_matches_ungrouped(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let dirs = [TempDir::new("lsm-plain").unwrap(), TempDir::new("lsm-grouped").unwrap()];
        let mut dbs = vec![open(&dirs[0], false), open(&dirs[1], true)];
        let mut ts = 100u64;
        let mut snapshots = vec![ts];
        for op in &ops {
            for i in 0..dbs.len() {
                let db = &dbs[i];
                match op {
                    Op::Put { key, value } => {
                        db.put(key_bytes(*key), ts + 1, Bytes::from(format!("v{value}"))).unwrap()
                    }
                    Op::Delete { key } => db.delete(key_bytes(*key), ts + 1).unwrap(),
                    Op::Flush => db.flush().unwrap(),
                    Op::Compact => db.compact().unwrap(),
                    Op::CrashReopen => {
                        dbs.remove(i).simulate_crash();
                        dbs.insert(i, open(&dirs[i], i == 1));
                    }
                }
            }
            if matches!(op, Op::Put { .. } | Op::Delete { .. }) {
                ts += 1;
                if ts.is_multiple_of(5) {
                    snapshots.push(ts);
                }
            }
        }
        let (plain, grouped) = (&dbs[0], &dbs[1]);
        for snap in snapshots.iter().rev().take(6).copied().chain([u64::MAX]) {
            for k in 0..24u8 {
                let key = key_bytes(k);
                let want = plain.get_versioned(&key, snap).unwrap();
                prop_assert_eq!(grouped.get_versioned(&key, snap).unwrap(), want, "get_versioned");
                let want = plain.get(&key, snap).unwrap();
                prop_assert_eq!(grouped.get(&key, snap).unwrap(), want, "get");
            }
            let want = plain.scan(b"", None, snap, usize::MAX).unwrap();
            prop_assert_eq!(grouped.scan(b"", None, snap, usize::MAX).unwrap(), want, "scan");
            let want = plain.scan(b"key005", Some(b"key015"), snap, 4).unwrap();
            let got = grouped.scan(b"key005", Some(b"key015"), snap, 4).unwrap();
            prop_assert_eq!(got, want, "bounded scan");
        }
    }
}
