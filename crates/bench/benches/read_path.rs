//! Criterion micro-benchmarks of the snapshot read path, layer by layer:
//! snapshot acquisition, memtable probe, single-table probe (warm cache),
//! raw block binary search, and the full engine `get`, alone and ten at a
//! time as single gets or one `get_many` batch. Together they show
//! where a warm point read spends its time and prove the lock-free rebuild
//! pays off end to end. `engine_get_cold`, `crc32_4k` and
//! `block_decode_4k` cover the miss path: a get whose block must be read,
//! checksummed, decoded and cached, evicting another.
//! `small_column_get_{ungrouped,grouped}` read one small column of rows
//! whose table is twice the cache, with and without that column in an
//! SSTable of its own (a column group).

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use diff_index_lsm::util::{crc32, put_len_prefixed, put_u32, put_varint};
use diff_index_lsm::{Block, BlockCache, Cell, CellKind, KeyGroups, LsmOptions, LsmTree};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use tempdir_lite::TempDir;

const KEYS: u64 = 50_000;
const TABLES: u64 = 5;

fn key(id: u64) -> Bytes {
    Bytes::from(format!("user{id:08}"))
}

/// TABLES tables of contiguous key ranges plus a live memtable holding
/// fresher versions of 20% of keys, under a block cache of `cache_bytes`.
fn build_tree(dir: &TempDir, cache_bytes: usize) -> LsmTree {
    let opts = LsmOptions {
        block_cache: Some(Arc::new(BlockCache::new(cache_bytes))),
        memtable_flush_bytes: usize::MAX,
        compaction_trigger: 0,
        ..LsmOptions::default()
    };
    let tree = LsmTree::open(dir.path().join("db"), opts).unwrap();
    let per_table = KEYS / TABLES;
    for id in 0..KEYS {
        tree.put(key(id), id + 1, vec![b'v'; 100]).unwrap();
        if id % per_table == per_table - 1 && id != KEYS - 1 {
            tree.flush().unwrap();
        }
    }
    tree.flush().unwrap();
    for id in (0..KEYS).step_by(5) {
        tree.put(key(id), KEYS + id + 1, vec![b'w'; 100]).unwrap();
    }
    // Warm the block cache (fill it, when it is smaller than the tables).
    for id in 0..KEYS {
        tree.get_latest(&key(id)).unwrap();
    }
    tree
}

/// Bytes of the SSTables under `dir`.
fn table_bytes(dir: &TempDir) -> usize {
    std::fs::read_dir(dir.path().join("db"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "sst"))
        .map(|p| std::fs::metadata(p).unwrap().len() as usize)
        .sum()
}

const ROWS: u64 = 20_000;

fn title_key(id: u64) -> Bytes {
    Bytes::from(format!("row{id:08}/title"))
}

/// `ROWS` rows of a ~20 B title cell next to a 1 KiB filler cell, like the
/// `item` table, flushed into one run; with `grouped` the titles are a
/// column group of their own. Reopened under a block cache of half the
/// table bytes, and warmed by reading every title.
fn build_rows(dir: &TempDir, grouped: bool) -> LsmTree {
    let path = dir.path().join(if grouped { "grouped" } else { "ungrouped" });
    let opts = |cache_bytes| LsmOptions {
        block_cache: Some(Arc::new(BlockCache::new(cache_bytes))),
        memtable_flush_bytes: usize::MAX,
        compaction_trigger: 0,
        ..LsmOptions::default()
    };
    let table_bytes = {
        let tree = LsmTree::open(&path, opts(1 << 20)).unwrap();
        if grouped {
            tree.set_groups_hook(Box::new(|| {
                Some(Arc::new(|k: &[u8]| usize::from(k.ends_with(b"/title"))) as KeyGroups)
            }));
        }
        for id in 0..ROWS {
            let filler = Cell::put(format!("row{id:08}/filler"), 1, vec![b'f'; 1024]);
            let title = Cell::put(title_key(id), 1, format!("title{:08}", id % 1000));
            tree.write_batch(&[filler, title]).unwrap();
        }
        tree.flush().unwrap();
        std::fs::read_dir(&path)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "sst"))
            .map(|p| std::fs::metadata(p).unwrap().len() as usize)
            .sum::<usize>()
    };
    let tree = LsmTree::open(&path, opts(table_bytes / 2)).unwrap();
    for id in 0..ROWS {
        tree.get_latest(&title_key(id)).unwrap();
    }
    tree
}

fn bench_read_path(c: &mut Criterion) {
    let dir = TempDir::new("bench-read-path").unwrap();
    let tree = build_tree(&dir, 256 * 1024 * 1024);
    let mut rng = StdRng::seed_from_u64(0xBE7C);

    let mut g = c.benchmark_group("read_path");

    // Full engine get at snapshot ∞ — the headline number.
    g.bench_function("engine_get_warm", |b| {
        b.iter_batched(
            || key(rng.random_range(0..KEYS)),
            |k| black_box(tree.get_latest(&k).unwrap()),
            BatchSize::SmallInput,
        )
    });

    // Ten random keys read one get at a time, then as one batch: the
    // batch takes one snapshot and memtable guard and hashes each key once.
    let ten_keys = |rng: &mut StdRng| -> Vec<Bytes> {
        (0..10).map(|_| key(rng.random_range(0..KEYS))).collect()
    };
    g.bench_function("engine_get_warm_10", |b| {
        b.iter_batched(
            || ten_keys(&mut rng),
            |keys| {
                for k in &keys {
                    black_box(tree.get_latest(k).unwrap());
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("engine_get_many_10", |b| {
        b.iter_batched(
            || ten_keys(&mut rng),
            |keys| black_box(tree.get_many(&keys, u64::MAX).unwrap()),
            BatchSize::SmallInput,
        )
    });

    // Engine get of a key living only in the memtable (fresh version):
    // never touches a table, isolating snapshot + memtable cost.
    g.bench_function("engine_get_memtable_hit", |b| {
        b.iter_batched(
            || key(rng.random_range(0..KEYS / 5) * 5),
            |k| black_box(tree.get_latest(&k).unwrap()),
            BatchSize::SmallInput,
        )
    });

    // Snapshot scan of 100 rows.
    g.bench_function("engine_scan_100", |b| {
        b.iter_batched(
            || key(rng.random_range(0..KEYS - 200)),
            |k| black_box(tree.scan(&k, None, u64::MAX, 100).unwrap()),
            BatchSize::SmallInput,
        )
    });

    // Raw block binary search + zero-copy materialization, no engine at all.
    let cells: Vec<Cell> = (0..64)
        .map(|i| Cell::put(format!("blk{i:04}"), i + 1, vec![b'x'; 100]))
        .collect();
    let block = Block::from_cells(&cells);
    g.bench_function("block_seek_and_cell", |b| {
        b.iter_batched(
            || format!("blk{:04}", rng.random_range(0..64u64)).into_bytes(),
            |k| {
                let pos = block.seek(&k, u64::MAX, diff_index_lsm::CellKind::Delete);
                black_box(block.cell(pos))
            },
            BatchSize::SmallInput,
        )
    });

    // The same tree under a cache of a quarter of its table bytes: most
    // gets miss, read and checksum a block, and evict the LRU block.
    let cold_dir = TempDir::new("bench-read-path-cold").unwrap();
    let cold = build_tree(&cold_dir, table_bytes(&dir) / 4);
    g.bench_function("engine_get_cold", |b| {
        b.iter_batched(
            || key(rng.random_range(0..KEYS)),
            |k| black_box(cold.get_latest(&k).unwrap()),
            BatchSize::SmallInput,
        )
    });

    // One small column of rows twice the cache: a mixed table shares each
    // title's block with filler and mostly misses; a column group keeps
    // every title block cached.
    let rows_dir = TempDir::new("bench-read-path-rows").unwrap();
    for grouped in [false, true] {
        let tree = build_rows(&rows_dir, grouped);
        let name = if grouped { "small_column_get_grouped" } else { "small_column_get_ungrouped" };
        g.bench_function(name, |b| {
            b.iter_batched(
                || title_key(rng.random_range(0..ROWS)),
                |k| black_box(tree.get_latest(&k).unwrap()),
                BatchSize::SmallInput,
            )
        });
    }

    // One checksum over a block-sized buffer, as every cache miss pays.
    let buf: Vec<u8> = (0..4096).map(|_| rng.random_range(0..256u64) as u8).collect();
    g.bench_function("crc32_4k", |b| b.iter(|| black_box(crc32(black_box(&buf)))));

    // One miss's CPU work after the `pread`: checksum, parse and allocate
    // a ~4 KiB block of 36 `build_tree`-style cells, then free it.
    let mut raw = Vec::new();
    for id in 0..36 {
        raw.push(CellKind::Put.to_u8());
        put_varint(&mut raw, id + 1);
        put_len_prefixed(&mut raw, &key(id));
        put_len_prefixed(&mut raw, &[b'v'; 100]);
    }
    let crc = crc32(&raw);
    put_u32(&mut raw, crc);
    g.bench_function("block_decode_4k", |b| {
        b.iter(|| black_box(Block::decode(black_box(&raw)).unwrap()))
    });

    g.finish();
}

criterion_group!(benches, bench_read_path);
criterion_main!(benches);
