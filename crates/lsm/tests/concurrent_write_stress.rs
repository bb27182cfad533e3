//! Multi-threaded stress test of the group-commit write path: concurrent
//! durable writers (single puts and batched puts) must keep completing —
//! and every *acknowledged* put must survive a crash — while flushes,
//! a compaction and validating readers run against the same tree. This is
//! the acceptance test for WAL group commit: acks are only issued after a
//! leader's fsync covers the writer's staged record, so a post-crash WAL
//! replay must reproduce every acked cell exactly.

use bytes::Bytes;
use diff_index_lsm::{LsmOptions, LsmTree};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tempdir_lite::TempDir;

const WRITERS: usize = 8;
/// Must be a multiple of `BATCH` so batched writers ack every op.
const OPS_PER_WRITER: u64 = 320;
/// Writers with an odd id use `put_batch` in chunks of this size.
const BATCH: u64 = 8;

fn key(writer: usize, op: u64) -> Bytes {
    Bytes::from(format!("w{writer}-{op:06}"))
}

fn value(writer: usize, op: u64) -> Bytes {
    Bytes::from(format!("v-{writer}-{op:06}"))
}

fn ts(writer: usize, op: u64) -> u64 {
    writer as u64 * OPS_PER_WRITER + op + 1
}

fn durable_opts() -> LsmOptions {
    LsmOptions {
        wal_sync: true,
        compaction_trigger: 0,
        memtable_flush_bytes: usize::MAX,
        ..LsmOptions::default()
    }
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
        eprintln!("concurrent_write_stress: watchdog fired after 120 s — deadlock?");
        std::process::exit(101);
    });
}

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *seed >> 33
}

#[test]
fn acked_puts_survive_crash_under_concurrent_maintenance() {
    let finished = Arc::new(AtomicBool::new(false));
    spawn_watchdog(Arc::clone(&finished));

    let dir = TempDir::new("write-stress").unwrap();
    let db = Arc::new(LsmTree::open(dir.path().join("db"), durable_opts()).unwrap());

    // acked[w] = number of operations writer w has been acked for; anything
    // below this mark must be durable from the moment it is published.
    let acked: Arc<Vec<AtomicU64>> =
        Arc::new((0..WRITERS).map(|_| AtomicU64::new(0)).collect());
    let writers_done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        // Writers: even ids put one row at a time, odd ids use put_batch —
        // both only publish an op as acked after the call returns, i.e.
        // after the group-commit fsync covering it.
        for w in 0..WRITERS {
            let db = Arc::clone(&db);
            let acked = Arc::clone(&acked);
            scope.spawn(move || {
                if w % 2 == 0 {
                    for op in 0..OPS_PER_WRITER {
                        db.put(key(w, op), ts(w, op), value(w, op)).unwrap();
                        acked[w].store(op + 1, Ordering::Release);
                    }
                } else {
                    for chunk in 0..(OPS_PER_WRITER / BATCH) {
                        let entries: Vec<(Bytes, u64, Bytes)> = (0..BATCH)
                            .map(|i| {
                                let op = chunk * BATCH + i;
                                (key(w, op), ts(w, op), value(w, op))
                            })
                            .collect();
                        db.put_batch(&entries).unwrap();
                        acked[w].store((chunk + 1) * BATCH, Ordering::Release);
                    }
                }
            });
        }

        // Maintenance: periodic flushes plus one compaction once at least
        // two SSTables exist, racing the writers.
        {
            let db = Arc::clone(&db);
            let done = Arc::clone(&writers_done);
            scope.spawn(move || {
                let mut flushes = 0;
                while !done.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(10));
                    if db.memtable_cells() > 0 {
                        db.flush().unwrap();
                        flushes += 1;
                    }
                    if flushes == 2 {
                        db.compact().unwrap();
                    }
                }
            });
        }

        // Readers: any op at or below a writer's published ack mark must be
        // visible with the exact value and timestamp it was acked with.
        for r in 0..2 {
            let db = Arc::clone(&db);
            let acked = Arc::clone(&acked);
            let done = Arc::clone(&writers_done);
            scope.spawn(move || {
                let mut seed = 0xC0FFEE ^ r as u64;
                while !done.load(Ordering::Acquire) {
                    let w = (lcg(&mut seed) as usize) % WRITERS;
                    let hi = acked[w].load(Ordering::Acquire);
                    if hi == 0 {
                        continue;
                    }
                    let op = lcg(&mut seed) % hi;
                    let got = db
                        .get_latest(&key(w, op))
                        .unwrap()
                        .unwrap_or_else(|| panic!("acked put w{w}/{op} not visible"));
                    assert_eq!(got.value, value(w, op), "wrong value for w{w}/{op}");
                    assert_eq!(got.ts, ts(w, op), "wrong ts for w{w}/{op}");
                }
            });
        }

        // Writer-join sentinel: flip `writers_done` when every writer has
        // published its final ack.
        {
            let acked = Arc::clone(&acked);
            let done = Arc::clone(&writers_done);
            scope.spawn(move || loop {
                if acked.iter().all(|a| a.load(Ordering::Acquire) == OPS_PER_WRITER) {
                    done.store(true, Ordering::Release);
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            });
        }
    });

    // Crash: memtable contents vanish, WAL and SSTables stay. Some acked
    // cells live only in the WAL tail at this point.
    let Ok(db) = Arc::try_unwrap(db) else { panic!("all threads joined, no Arc clones left") };
    assert!(db.metrics().snapshot().wal_fsyncs >= 1);
    db.simulate_crash();

    // Recovery: WAL replay must restore every acked put bit-for-bit.
    let db = LsmTree::open(dir.path().join("db"), durable_opts()).unwrap();
    for w in 0..WRITERS {
        for op in 0..OPS_PER_WRITER {
            let got = db
                .get_latest(&key(w, op))
                .unwrap()
                .unwrap_or_else(|| panic!("acked put w{w}/{op} lost in crash"));
            assert_eq!(got.value, value(w, op), "w{w}/{op} value corrupted by replay");
            assert_eq!(got.ts, ts(w, op), "w{w}/{op} ts corrupted by replay");
        }
    }
    finished.store(true, Ordering::Release);
}
