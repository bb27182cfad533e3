//! Multi-threaded stress test of the snapshot read path: point gets and
//! scans must keep completing — with correct results — while a slow flush
//! and a compaction run in the background. This is the acceptance test for
//! the lock-free read path: readers work off atomically-swapped immutable
//! snapshots, so neither the memtable freeze, the SSTable build, nor the
//! table-set swap ever blocks them.

use bytes::Bytes;
use diff_index_lsm::{BlockCache, LsmOptions, LsmTree};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tempdir_lite::TempDir;

const KEYS: u64 = 40_000;
const READERS: usize = 4;

fn key(id: u64) -> Bytes {
    Bytes::from(format!("user{id:08}"))
}

fn value(gen: u64, id: u64) -> Bytes {
    Bytes::from(format!("value-{gen}-{id:08}"))
}

/// Timestamp for generation `gen` of key `id`; strictly increasing in `gen`.
fn ts(gen: u64, id: u64) -> u64 {
    gen * KEYS + id + 1
}

/// Cheap deterministic per-thread RNG (the readers must not share state).
fn lcg(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *seed >> 33
}

/// Abort the whole process if the test deadlocks instead of hanging CI.
fn spawn_watchdog(finished: Arc<AtomicBool>) {
    std::thread::spawn(move || {
        for _ in 0..240 {
            std::thread::sleep(Duration::from_millis(500));
            if finished.load(Ordering::Acquire) {
                return;
            }
        }
        eprintln!("concurrent_stress: watchdog fired after 120 s — deadlock?");
        std::process::exit(101);
    });
}

/// Expected newest value of `id` after generations 0..=2 everywhere and
/// generation 3 on ids divisible by 4.
fn newest(id: u64, gen3_applied: bool) -> Bytes {
    if gen3_applied && id.is_multiple_of(4) {
        value(3, id)
    } else {
        value(2, id)
    }
}

/// One reader loop: random gets plus periodic short scans, all validated,
/// until `done` flips. Returns how many operations completed strictly
/// before `done` was observed set.
fn reader_loop(db: &LsmTree, done: &AtomicBool, seed: u64, gen3_applied: bool) -> u64 {
    let mut seed = seed;
    let mut before_done = 0u64;
    let mut ops = 0u64;
    loop {
        let id = lcg(&mut seed) % KEYS;
        let got = db.get_latest(&key(id)).unwrap().expect("key must be visible");
        assert_eq!(
            got.value,
            newest(id, gen3_applied),
            "get of id {id} returned a wrong/partial view mid-maintenance"
        );
        ops += 1;
        if ops.is_multiple_of(64) {
            let start = lcg(&mut seed) % (KEYS - 60);
            let rows = db.scan(&key(start), None, u64::MAX, 50).unwrap();
            assert_eq!(rows.len(), 50, "scan starting at {start} lost rows");
            for (i, (k, v)) in rows.iter().enumerate() {
                let id = start + i as u64;
                assert_eq!(k, &key(id), "scan row {i} out of order");
                assert_eq!(v.value, newest(id, gen3_applied), "scan saw stale id {id}");
            }
        }
        if done.load(Ordering::Acquire) {
            return before_done;
        }
        before_done += 1;
    }
}

#[test]
fn reads_complete_while_flush_and_compaction_run() {
    let finished = Arc::new(AtomicBool::new(false));
    spawn_watchdog(Arc::clone(&finished));

    let dir = TempDir::new("stress").unwrap();
    let opts = LsmOptions {
        block_cache: Some(Arc::new(BlockCache::new(64 * 1024 * 1024))),
        memtable_flush_bytes: usize::MAX,
        compaction_trigger: 0,
        wal_sync: false,
        ..LsmOptions::default()
    };
    let db = Arc::new(LsmTree::open(dir.path().join("db"), opts).unwrap());

    // Generations 0 and 1: two full SSTables of older versions, so reads
    // traverse real tables while maintenance churns.
    for gen in 0..2 {
        for id in 0..KEYS {
            db.put(key(id), ts(gen, id), value(gen, id)).unwrap();
        }
        db.flush().unwrap();
    }
    // Generation 2: a large live memtable (KEYS cells) that makes the
    // upcoming flush slow enough to observe reads landing inside it.
    for id in 0..KEYS {
        db.put(key(id), ts(2, id), value(2, id)).unwrap();
    }
    assert!(db.memtable_cells() >= KEYS as usize);

    // -- Phase 1: concurrent reads during a slow flush ----------------------
    let flush_started = Arc::new(AtomicBool::new(false));
    let flush_done = Arc::new(AtomicBool::new(false));
    {
        let started = Arc::clone(&flush_started);
        db.add_pre_flush_hook(Box::new(move || {
            started.store(true, Ordering::Release);
        }));
    }
    let flusher = {
        let db = Arc::clone(&db);
        let done = Arc::clone(&flush_done);
        std::thread::spawn(move || {
            db.flush().unwrap();
            done.store(true, Ordering::Release);
        })
    };
    let completed_during_flush = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..READERS)
        .map(|i| {
            let db = Arc::clone(&db);
            let started = Arc::clone(&flush_started);
            let done = Arc::clone(&flush_done);
            let counter = Arc::clone(&completed_during_flush);
            std::thread::spawn(move || {
                while !started.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                let n = reader_loop(&db, &done, 0x5EED + i as u64, false);
                counter.fetch_add(n, Ordering::Relaxed);
            })
        })
        .collect();
    flusher.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
    assert!(
        completed_during_flush.load(Ordering::Relaxed) >= 10,
        "expected at least 10 reads to complete strictly before the flush \
         finished, got {} — flush is blocking readers",
        completed_during_flush.load(Ordering::Relaxed)
    );
    assert_eq!(db.memtable_cells(), 0, "flush must have drained the memtable");

    // -- Phase 2: concurrent reads during compaction ------------------------
    // A fourth generation on 25% of keys, flushed, gives compaction real
    // merge work across four tables.
    for id in (0..KEYS).step_by(4) {
        db.put(key(id), ts(3, id), value(3, id)).unwrap();
    }
    db.flush().unwrap();
    assert!(db.table_count() >= 4);

    let compact_done = Arc::new(AtomicBool::new(false));
    let completed_during_compact = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..READERS)
        .map(|i| {
            let db = Arc::clone(&db);
            let done = Arc::clone(&compact_done);
            let counter = Arc::clone(&completed_during_compact);
            std::thread::spawn(move || {
                let n = reader_loop(&db, &done, 0xFACE + i as u64, true);
                counter.fetch_add(n, Ordering::Relaxed);
            })
        })
        .collect();
    let compactor = {
        let db = Arc::clone(&db);
        let done = Arc::clone(&compact_done);
        std::thread::spawn(move || {
            db.compact().unwrap();
            done.store(true, Ordering::Release);
        })
    };
    compactor.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
    assert!(
        completed_during_compact.load(Ordering::Relaxed) >= 10,
        "expected at least 10 reads to complete strictly before compaction \
         finished, got {} — compaction is blocking readers",
        completed_during_compact.load(Ordering::Relaxed)
    );

    // -- Final consistency sweep -------------------------------------------
    let rows = db.scan(&key(0), None, u64::MAX, KEYS as usize).unwrap();
    assert_eq!(rows.len(), KEYS as usize);
    for (i, (k, v)) in rows.iter().enumerate() {
        let id = i as u64;
        assert_eq!(k, &key(id));
        assert_eq!(v.value, newest(id, true));
    }
    finished.store(true, Ordering::Release);
}
