//! Multi-threaded stress test of the group-commit write path: concurrent
//! durable writers (single puts and batched puts) must keep completing —
//! and every *acknowledged* put must survive a crash — while flushes,
//! a compaction and validating readers run against the same tree. This is
//! the acceptance test for WAL group commit: acks are only issued after a
//! leader's fsync covers the writer's staged record, so a post-crash WAL
//! replay must reproduce every acked cell exactly.
//!
//! The run has two phases. In the first, flushes (each a WAL roll) and a
//! compaction race the writers until the maintenance thread has done its
//! share. After one last flush, the writers then put a tail of about
//! 0.8 MB of 1 KiB values into the fresh segment, racing each other and
//! the readers: that segment, live at the crash, crosses several
//! zero-fill steps (`wal::ZERO_FILL_STEP`), and replay must stop cleanly
//! at its zero-filled end.

use bytes::Bytes;
use diff_index_lsm::wal::{self, ZERO_FILL_STEP};
use diff_index_lsm::{LsmOptions, LsmTree};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tempdir_lite::TempDir;

const WRITERS: usize = 8;
/// Ops each writer puts at least while maintenance races it; it keeps
/// going until the maintenance thread has flushed twice and compacted.
/// Both counts are multiples of `BATCH`, so batched writers ack every op.
const RACED_OPS: u64 = 320;
/// Ops each writer puts into the segment live at the crash.
const TAIL_OPS: u64 = 96;
/// Writers with an odd id use `put_batch` in chunks of this size.
const BATCH: u64 = 8;
/// Bytes per value.
const VALUE_LEN: usize = 1024;
/// Timestamp stride between writers: above any writer's op count.
const TS_STRIDE: u64 = 1 << 32;

fn key(writer: usize, op: u64) -> Bytes {
    Bytes::from(format!("w{writer}-{op:06}"))
}

fn value(writer: usize, op: u64) -> Bytes {
    let mut v = format!("v-{writer}-{op:06}-").into_bytes();
    v.resize(VALUE_LEN, b'.');
    Bytes::from(v)
}

fn ts(writer: usize, op: u64) -> u64 {
    writer as u64 * TS_STRIDE + op + 1
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

/// Path of the newest WAL segment in `dir`.
fn live_segment(dir: &Path) -> PathBuf {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_str().unwrap().starts_with("wal-"))
        .max()
        .expect("a live WAL segment")
}

/// Put writer `w`'s ops from `op` on (one put, or one `put_batch` of
/// `BATCH` for odd writers) and publish each ack; returns the next op.
fn put_next(db: &LsmTree, acked: &AtomicU64, w: usize, op: u64) -> u64 {
    if w % 2 == 1 {
        let entries: Vec<(Bytes, u64, Bytes)> =
            (op..op + BATCH).map(|op| (key(w, op), ts(w, op), value(w, op))).collect();
        db.put_batch(&entries).unwrap();
        acked.store(op + BATCH, Ordering::Release);
        op + BATCH
    } else {
        db.put(key(w, op), ts(w, op), value(w, op)).unwrap();
        acked.store(op + 1, Ordering::Release);
        op + 1
    }
}

#[test]
fn acked_puts_survive_crash_under_concurrent_maintenance() {
    let finished = Arc::new(AtomicBool::new(false));
    spawn_watchdog(Arc::clone(&finished));

    let dir = TempDir::new("write-stress").unwrap();
    let db = Arc::new(LsmTree::open(dir.path().join("db"), durable_opts()).unwrap());

    // acked[w] = number of operations writer w has been acked for; anything
    // below this mark must be durable from the moment it is published.
    let acked: Arc<Vec<AtomicU64>> = Arc::new((0..WRITERS).map(|_| AtomicU64::new(0)).collect());
    // Maintenance has flushed twice and compacted: the writers may stop.
    let raced = Arc::new(AtomicBool::new(false));
    // Writers done with the raced phase; the last flush lets them go on.
    let parked = Arc::new(AtomicUsize::new(0));
    let tail_open = Arc::new(AtomicBool::new(false));
    // Writers not yet through their tail: the readers run until it is 0.
    let writers_left = Arc::new(AtomicUsize::new(WRITERS));

    std::thread::scope(|scope| {
        // Writers: even ids put one row at a time, odd ids use put_batch —
        // both only publish an op as acked after the call returns, i.e.
        // after the group-commit fsync covering it.
        for w in 0..WRITERS {
            let (db, acked) = (Arc::clone(&db), Arc::clone(&acked));
            let (raced, parked) = (Arc::clone(&raced), Arc::clone(&parked));
            let (tail_open, left) = (Arc::clone(&tail_open), Arc::clone(&writers_left));
            scope.spawn(move || {
                let mut op = 0;
                while op < RACED_OPS || !raced.load(Ordering::Acquire) {
                    op = put_next(&db, &acked[w], w, op);
                }
                parked.fetch_add(1, Ordering::AcqRel);
                while !tail_open.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let end = op + TAIL_OPS;
                while op < end {
                    op = put_next(&db, &acked[w], w, op);
                }
                left.fetch_sub(1, Ordering::AcqRel);
            });
        }

        // Maintenance: periodic flushes plus one compaction once at least
        // two runs exist, racing the writers. Once every writer has parked,
        // a last flush hands the tail a fresh segment.
        {
            let db = Arc::clone(&db);
            let (raced, parked) = (Arc::clone(&raced), Arc::clone(&parked));
            let tail_open = Arc::clone(&tail_open);
            scope.spawn(move || {
                let mut flushes = 0;
                let mut compacted = false;
                while parked.load(Ordering::Acquire) < WRITERS {
                    std::thread::sleep(Duration::from_millis(10));
                    if db.memtable_cells() > 0 {
                        db.flush().unwrap();
                        flushes += 1;
                    }
                    if flushes >= 2 && !compacted {
                        db.compact().unwrap();
                        compacted = true;
                        raced.store(true, Ordering::Release);
                    }
                }
                db.flush().unwrap();
                tail_open.store(true, Ordering::Release);
            });
        }

        // Readers: any op at or below a writer's published ack mark must be
        // visible with the exact value and timestamp it was acked with.
        for r in 0..2 {
            let (db, acked) = (Arc::clone(&db), Arc::clone(&acked));
            let left = Arc::clone(&writers_left);
            scope.spawn(move || {
                let mut seed = 0xC0FFEE ^ r as u64;
                while left.load(Ordering::Acquire) > 0 {
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
    });

    // Crash: memtable contents vanish, WAL and SSTables stay. The tail's
    // acked cells live only in the WAL at this point.
    let Ok(db) = Arc::try_unwrap(db) else { panic!("all threads joined, no Arc clones left") };
    let m = db.metrics().snapshot();
    assert!(m.wal_fsyncs >= 1);
    // The compaction ran after two raced flushes; the last one is the third.
    assert!(m.compactions >= 1, "no compaction raced the writers");
    assert!(m.flushes >= 3, "only {} flushes", m.flushes);
    db.simulate_crash();

    // The live segment crossed at least two zero-fill steps, and its file
    // runs past the record bytes: the zero-filled tail replay must skip.
    let segment = live_segment(&dir.path().join("db"));
    let len = std::fs::metadata(&segment).unwrap().len();
    let r = wal::replay(&segment).unwrap();
    assert!(!r.torn_tail, "every record of the live segment was acked whole");
    assert!(len >= 2 * ZERO_FILL_STEP, "live segment is {len} B: fewer than two steps");
    assert!(
        len > r.record_bytes,
        "segment of {len} B holds {} B of records: no zero fill",
        r.record_bytes
    );

    // Recovery: WAL replay must restore every acked put bit-for-bit.
    let db = LsmTree::open(dir.path().join("db"), durable_opts()).unwrap();
    for (w, acked) in acked.iter().enumerate() {
        let ops = acked.load(Ordering::Acquire);
        assert!(ops >= RACED_OPS + TAIL_OPS, "writer {w} acked only {ops} ops");
        for op in 0..ops {
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
