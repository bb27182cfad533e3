//! Immutable on-disk sorted table (the paper's *disk store* `C1..Cn`, HBase's
//! *HTable/HFile*).
//!
//! File layout:
//!
//! ```text
//! [data block]* [index block] [bloom block] [footer]
//! ```
//!
//! * **Data block** — cells in internal-key order, each encoded as
//!   `kind: u8, ts: varint, key: len-prefixed, value: len-prefixed`, followed
//!   by a CRC-32 of the block body.
//! * **Index block** — properties (cell count, min/max user key, max ts) plus
//!   one `(first internal key, offset, len)` entry per data block.
//! * **Bloom block** — bloom filter over user keys (see [`crate::bloom`]).
//! * **Footer** — fixed-size: offsets/lengths of index and bloom, a CRC of
//!   the footer body, and a magic number.

use crate::bloom::{Bloom, BloomBuilder};
use crate::cache::BlockCache;
use crate::metrics::Metrics;
use crate::types::{cmp_internal, Cell, CellKind, InternalKey, LsmError, Result, Timestamp};
use crate::util::{
    crc32, get_len_prefixed, get_u32, get_u64, get_varint, put_len_prefixed, put_u32, put_u64,
    put_varint,
};
use bytes::Bytes;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

const MAGIC: u64 = 0xD1FF_1DE8_5574_AB1E;
const FOOTER_LEN: usize = 8 * 4 + 4 + 8; // 4 u64 fields + crc + magic

/// Tuning knobs for table construction.
#[derive(Debug, Clone)]
pub struct TableOptions {
    /// Target uncompressed size of one data block.
    pub block_size: usize,
    /// Bloom filter budget.
    pub bloom_bits_per_key: usize,
}

impl Default for TableOptions {
    fn default() -> Self {
        Self { block_size: 4096, bloom_bits_per_key: 10 }
    }
}

/// Summary of a finished table.
#[derive(Debug, Clone)]
pub struct TableProperties {
    /// Number of cells (versions) stored.
    pub cell_count: u64,
    /// Smallest user key.
    pub min_key: Bytes,
    /// Largest user key.
    pub max_key: Bytes,
    /// Largest cell timestamp (used by compaction GC heuristics).
    pub max_ts: Timestamp,
    /// Total file size in bytes.
    pub file_size: u64,
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Streaming SSTable writer. Cells must be appended in strictly increasing
/// internal-key order.
pub struct TableBuilder {
    file: BufWriter<File>,
    path: PathBuf,
    opts: TableOptions,
    block: Vec<u8>,
    block_first_key: Option<InternalKey>,
    index: Vec<(InternalKey, u64, u32)>,
    bloom: BloomBuilder,
    last_key: Option<InternalKey>,
    offset: u64,
    cell_count: u64,
    min_key: Option<Bytes>,
    max_key: Option<Bytes>,
    max_ts: Timestamp,
}

impl TableBuilder {
    /// Begin writing a table at `path`.
    pub fn create(path: impl Into<PathBuf>, opts: TableOptions) -> Result<Self> {
        let path = path.into();
        let file = File::create(&path)?;
        Ok(Self {
            file: BufWriter::new(file),
            path,
            bloom: BloomBuilder::new(opts.bloom_bits_per_key),
            opts,
            block: Vec::new(),
            block_first_key: None,
            index: Vec::new(),
            last_key: None,
            offset: 0,
            cell_count: 0,
            min_key: None,
            max_key: None,
            max_ts: 0,
        })
    }

    /// Append the next cell. Returns an error if ordering is violated.
    pub fn add(&mut self, cell: &Cell) -> Result<()> {
        if let Some(last) = &self.last_key {
            if *last >= cell.key {
                return Err(LsmError::InvalidOperation(format!(
                    "cells out of order: {:?} then {:?}",
                    last, cell.key
                )));
            }
        }
        if self.block_first_key.is_none() {
            self.block_first_key = Some(cell.key.clone());
        }
        self.block.push(cell.key.kind.to_u8());
        put_varint(&mut self.block, cell.key.ts);
        put_len_prefixed(&mut self.block, &cell.key.user_key);
        put_len_prefixed(&mut self.block, &cell.value);

        self.bloom.add(&cell.key.user_key);
        self.cell_count += 1;
        self.max_ts = self.max_ts.max(cell.key.ts);
        if self.min_key.is_none() {
            self.min_key = Some(cell.key.user_key.clone());
        }
        self.max_key = Some(cell.key.user_key.clone());
        self.last_key = Some(cell.key.clone());

        if self.block.len() >= self.opts.block_size {
            self.finish_block()?;
        }
        Ok(())
    }

    fn finish_block(&mut self) -> Result<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        let crc = crc32(&self.block);
        let mut body = std::mem::take(&mut self.block);
        put_u32(&mut body, crc);
        let first = self.block_first_key.take().expect("non-empty block has first key");
        self.index.push((first, self.offset, body.len() as u32));
        self.file.write_all(&body)?;
        self.offset += body.len() as u64;
        Ok(())
    }

    /// Flush remaining data, write index/bloom/footer, fsync, and return the
    /// table properties. The builder is consumed.
    pub fn finish(mut self) -> Result<TableProperties> {
        if self.cell_count == 0 {
            return Err(LsmError::InvalidOperation("empty table".into()));
        }
        self.finish_block()?;

        // Index block: properties header then per-block entries.
        let mut index = Vec::new();
        put_u64(&mut index, self.cell_count);
        put_len_prefixed(&mut index, self.min_key.as_ref().unwrap());
        put_len_prefixed(&mut index, self.max_key.as_ref().unwrap());
        put_u64(&mut index, self.max_ts);
        put_varint(&mut index, self.index.len() as u64);
        for (first, off, len) in &self.index {
            index.push(first.kind.to_u8());
            put_varint(&mut index, first.ts);
            put_len_prefixed(&mut index, &first.user_key);
            put_u64(&mut index, *off);
            put_u32(&mut index, *len);
        }
        let index_crc = crc32(&index);
        put_u32(&mut index, index_crc);
        let index_off = self.offset;
        self.file.write_all(&index)?;
        self.offset += index.len() as u64;

        let bloom = self.bloom.build().encode();
        let bloom_off = self.offset;
        self.file.write_all(&bloom)?;
        self.offset += bloom.len() as u64;

        let mut footer = Vec::with_capacity(FOOTER_LEN);
        put_u64(&mut footer, index_off);
        put_u64(&mut footer, index.len() as u64);
        put_u64(&mut footer, bloom_off);
        put_u64(&mut footer, bloom.len() as u64);
        let fcrc = crc32(&footer);
        put_u32(&mut footer, fcrc);
        put_u64(&mut footer, MAGIC);
        self.file.write_all(&footer)?;
        self.offset += footer.len() as u64;

        self.file.flush()?;
        self.file.get_ref().sync_data()?;

        Ok(TableProperties {
            cell_count: self.cell_count,
            min_key: self.min_key.unwrap(),
            max_key: self.max_key.unwrap(),
            max_ts: self.max_ts,
            file_size: self.offset,
        })
    }

    /// Path being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Cells added so far.
    pub fn cell_count(&self) -> u64 {
        self.cell_count
    }
}

// ---------------------------------------------------------------------------
// Decoded data block
// ---------------------------------------------------------------------------

/// A decoded, immutable data block: the block body as **one** shared byte
/// buffer plus one per-cell index array.
///
/// The seed decoded every block into a `Vec<Cell>`, paying two
/// `Bytes::copy_from_slice` allocations per cell up front and a linear scan
/// per lookup. A `Block` instead validates the encoding once, remembers
/// where each cell starts, and hands out cells on demand: key/value `Bytes`
/// are O(1) refcounted windows into the block buffer (`Bytes::slice`), and
/// point lookups search the index with borrowed-slice key comparisons — no
/// allocation on the lookup path at all.
#[derive(Debug)]
pub struct Block {
    /// Block body (cell encodings only; the trailing CRC is stripped).
    data: Bytes,
    /// Number of cells.
    len: usize,
    /// Per-cell key prefixes (see [`key_prefix`]) in `[..len]`, then the
    /// cells' `u32` byte offsets into `data`, four per word, ascending.
    /// Seeks scan the contiguous prefixes instead of binary-searching the
    /// block body: on a cold block the body parses are serially-dependent
    /// DRAM misses, while a sequential prefix scan streams through the
    /// hardware prefetcher. Only prefix-tied cells are parsed. One
    /// exactly-sized allocation, so a miss allocates twice (this and
    /// `data`) and an eviction frees as little.
    index: Box<[u128]>,
}

/// Parse the key parts of the cell encoded at `off`. Caller guarantees the
/// encoding was validated by [`Block::decode`].
fn parse_key_at(d: &[u8], off: usize) -> (&[u8], Timestamp, CellKind) {
    let kind = CellKind::from_u8(d[off]).expect("validated at decode");
    let off = off + 1;
    let (ts, n) = get_varint(&d[off..]).expect("validated at decode");
    let off = off + n;
    let (key, _) = get_len_prefixed(&d[off..]).expect("validated at decode");
    (key, ts, kind)
}

/// Per-thread scratch for [`Block::decode`]: cell prefixes and offsets
/// collected in one pass, before the exact count is known. Reused, so a
/// decode neither regrows vectors nor frees them.
struct DecodeScratch {
    prefixes: Vec<u128>,
    offsets: Vec<u32>,
}

thread_local! {
    static DECODE_SCRATCH: RefCell<DecodeScratch> =
        const { RefCell::new(DecodeScratch { prefixes: Vec::new(), offsets: Vec::new() }) };
}

impl Block {
    /// Validate and index a raw block as read from disk (body + trailing
    /// CRC), copying the body once into the block's own buffer.
    pub fn decode(buf: &[u8]) -> std::result::Result<Block, String> {
        if buf.len() < 4 {
            return Err("short block".into());
        }
        let body_len = buf.len() - 4;
        let crc = get_u32(buf, body_len).expect("length checked above");
        let body = &buf[..body_len];
        if crc32(body) != crc {
            return Err("checksum mismatch".into());
        }
        DECODE_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            scratch.prefixes.clear();
            scratch.offsets.clear();
            let mut off = 0usize;
            while off < body.len() {
                scratch.offsets.push(off as u32);
                CellKind::from_u8(body[off]).ok_or_else(|| "bad cell kind".to_string())?;
                off += 1;
                let (_, n) = get_varint(&body[off..]).ok_or_else(|| "short ts".to_string())?;
                off += n;
                let (key, n) =
                    get_len_prefixed(&body[off..]).ok_or_else(|| "short key".to_string())?;
                scratch.prefixes.push(key_prefix(key));
                off += n;
                let (_, n) =
                    get_len_prefixed(&body[off..]).ok_or_else(|| "short value".to_string())?;
                off += n;
            }
            let packed = scratch
                .offsets
                .chunks(4)
                .map(|four| four.iter().rev().fold(0u128, |word, &o| (word << 32) | u128::from(o)));
            let index = scratch.prefixes.iter().copied().chain(packed).collect();
            Ok(Block { data: Bytes::copy_from_slice(body), len: scratch.prefixes.len(), index })
        })
    }

    /// Build a block in memory from already-sorted cells (tests and cache
    /// benchmarks; the storage path always goes through [`TableBuilder`]).
    pub fn from_cells(cells: &[Cell]) -> Block {
        let mut body = Vec::new();
        for c in cells {
            body.push(c.key.kind.to_u8());
            put_varint(&mut body, c.key.ts);
            put_len_prefixed(&mut body, &c.key.user_key);
            put_len_prefixed(&mut body, &c.value);
        }
        let crc = crc32(&body);
        put_u32(&mut body, crc);
        Block::decode(&body).expect("self-encoded block is valid")
    }

    /// Key prefixes of the cells, in order.
    fn prefixes(&self) -> &[u128] {
        &self.index[..self.len]
    }

    /// Byte offset of cell `i` within `data`.
    fn offset(&self, i: usize) -> usize {
        assert!(i < self.len, "cell {i} of {}", self.len);
        (self.index[self.len + i / 4] >> (32 * (i % 4))) as u32 as usize
    }

    /// Number of cells in the block.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the block holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate resident size, for cache accounting.
    pub fn size_bytes(&self) -> usize {
        self.data.len() + self.index.len() * 16 + 64
    }

    /// Borrowed key parts of cell `i`: `(user_key, ts, kind)`.
    pub fn key_parts(&self, i: usize) -> (&[u8], Timestamp, CellKind) {
        parse_key_at(self.data.as_ref(), self.offset(i))
    }

    /// Materialize cell `i`. Key and value are zero-copy windows into the
    /// block buffer.
    pub fn cell(&self, i: usize) -> Cell {
        let d = self.data.as_ref();
        let mut off = self.offset(i);
        let kind = CellKind::from_u8(d[off]).expect("validated at decode");
        off += 1;
        let (ts, n) = get_varint(&d[off..]).expect("validated at decode");
        off += n;
        let (k, n) = get_len_prefixed(&d[off..]).expect("validated at decode");
        let key_range = off + n - k.len()..off + n;
        off += n;
        let (v, n) = get_len_prefixed(&d[off..]).expect("validated at decode");
        let val_range = off + n - v.len()..off + n;
        Cell {
            key: InternalKey {
                user_key: self.data.slice(key_range),
                ts,
                kind,
            },
            value: self.data.slice(val_range),
        }
    }

    /// Index of the first cell whose internal key is `>=` the target, or
    /// `len()` if all cells are smaller.
    ///
    /// Strict prefix inequality implies the same strict user-key order
    /// (zero-padded fixed-width compare), so the sequential prefix scan
    /// resolves every cell except those tied with the target's prefix;
    /// only the tie range is parsed for the full `(key, ts, kind)` compare.
    pub fn seek(&self, user_key: &[u8], ts: Timestamp, kind: CellKind) -> usize {
        let target = key_prefix(user_key);
        let prefixes = self.prefixes();
        let n = prefixes.len();
        let mut lo = 0usize;
        while lo < n && prefixes[lo] < target {
            lo += 1;
        }
        let mut hi = lo;
        while hi < n && prefixes[hi] == target {
            hi += 1;
        }
        // Binary-search the tie range on the full internal key.
        let d = self.data.as_ref();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if cmp_internal(parse_key_at(d, self.offset(mid)), (user_key, ts, kind))
                == Ordering::Less
            {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct IndexEntry {
    /// First 16 bytes of `first.user_key`, zero-padded, as a big-endian
    /// integer. Strict inequality of two prefixes implies the same strict
    /// order of the full keys, so the index binary search only dereferences
    /// the out-of-line `Bytes` key on prefix ties — most search steps stay
    /// within this (cache-resident) struct.
    prefix: u128,
    first: InternalKey,
    offset: u64,
    len: u32,
}

/// Zero-padded big-endian prefix of `key`; see [`IndexEntry::prefix`].
fn key_prefix(key: &[u8]) -> u128 {
    let mut buf = [0u8; 16];
    let n = key.len().min(16);
    buf[..n].copy_from_slice(&key[..n]);
    u128::from_be_bytes(buf)
}

/// Random-access reader over a finished table. Cheap to clone via `Arc`.
pub struct Table {
    file: File,
    path: PathBuf,
    /// Caller-supplied id (the engine's file number, used for manifests).
    id: u64,
    /// Globally unique block-cache namespace. File numbers restart per
    /// engine directory, and a block cache may be shared across many
    /// engines (HBase shares one per region server), so cache keys must
    /// not be derived from the file number.
    cache_ns: u64,
    index: Vec<IndexEntry>,
    bloom: Bloom,
    /// Inline prefixes of `props.min_key` / `props.max_key`, so the
    /// per-table range check on the read path usually resolves without
    /// dereferencing either `Bytes`.
    min_prefix: u128,
    max_prefix: u128,
    props: TableProperties,
    cache: Option<Arc<BlockCache>>,
    /// Engine metrics for block-cache hit/miss/eviction accounting; `None`
    /// for tables opened outside an engine (tools, tests).
    metrics: Option<Arc<Metrics>>,
    /// Data blocks this table read from its file: its cache misses, or
    /// every block read when it has no cache.
    block_reads: AtomicU64,
}

thread_local! {
    /// Per-thread buffer a missed block is read and checksummed in, so a
    /// miss allocates only the decoded [`Block`].
    static READ_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Capacity [`READ_BUF`] keeps between reads: a few default-sized blocks.
/// A rare larger block (one oversized cell) is read into a buffer freed
/// after it.
const READ_BUF_RETAIN: usize = 64 << 10;

/// Source of globally unique cache namespaces.
static NEXT_CACHE_NS: AtomicU64 = AtomicU64::new(1);

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("path", &self.path)
            .field("id", &self.id)
            .field("blocks", &self.index.len())
            .field("cells", &self.props.cell_count)
            .finish()
    }
}

impl Table {
    /// Open a table file, validating footer and index checksums.
    pub fn open(
        path: impl Into<PathBuf>,
        id: u64,
        cache: Option<Arc<BlockCache>>,
    ) -> Result<Self> {
        let path = path.into();
        let file = File::open(&path)?;
        let file_size = file.metadata()?.len();
        let corrupt =
            |m: String| LsmError::Corruption(format!("{}: {m}", path.display()));
        if (file_size as usize) < FOOTER_LEN {
            return Err(corrupt("file shorter than footer".into()));
        }
        let mut footer = vec![0u8; FOOTER_LEN];
        file.read_exact_at(&mut footer, file_size - FOOTER_LEN as u64)?;
        let magic = get_u64(&footer, FOOTER_LEN - 8).unwrap();
        if magic != MAGIC {
            return Err(corrupt(format!("bad magic {magic:#x}")));
        }
        let fcrc = get_u32(&footer, 32).unwrap();
        if crc32(&footer[..32]) != fcrc {
            return Err(corrupt("footer checksum mismatch".into()));
        }
        let index_off = get_u64(&footer, 0).unwrap();
        let index_len = get_u64(&footer, 8).unwrap();
        let bloom_off = get_u64(&footer, 16).unwrap();
        let bloom_len = get_u64(&footer, 24).unwrap();
        if index_off + index_len > file_size || bloom_off + bloom_len > file_size {
            return Err(corrupt("index/bloom extent out of bounds".into()));
        }

        let mut index_buf = vec![0u8; index_len as usize];
        file.read_exact_at(&mut index_buf, index_off)?;
        if index_buf.len() < 4 {
            return Err(corrupt("index block too small".into()));
        }
        let body_len = index_buf.len() - 4;
        let icrc = get_u32(&index_buf, body_len).unwrap();
        if crc32(&index_buf[..body_len]) != icrc {
            return Err(corrupt("index checksum mismatch".into()));
        }
        let body = &index_buf[..body_len];
        let mut off = 0usize;
        let cell_count = get_u64(body, off).ok_or_else(|| corrupt("short props".into()))?;
        off += 8;
        let (min_key, n) =
            get_len_prefixed(&body[off..]).ok_or_else(|| corrupt("short min key".into()))?;
        let min_key = Bytes::copy_from_slice(min_key);
        off += n;
        let (max_key, n) =
            get_len_prefixed(&body[off..]).ok_or_else(|| corrupt("short max key".into()))?;
        let max_key = Bytes::copy_from_slice(max_key);
        off += n;
        let max_ts = get_u64(body, off).ok_or_else(|| corrupt("short max ts".into()))?;
        off += 8;
        let (nblocks, n) =
            get_varint(&body[off..]).ok_or_else(|| corrupt("short block count".into()))?;
        off += n;
        let mut index = Vec::with_capacity(nblocks as usize);
        for _ in 0..nblocks {
            let kind = CellKind::from_u8(body[off])
                .ok_or_else(|| corrupt("bad index kind".into()))?;
            off += 1;
            let (ts, n) =
                get_varint(&body[off..]).ok_or_else(|| corrupt("short index ts".into()))?;
            off += n;
            let (ukey, n) = get_len_prefixed(&body[off..])
                .ok_or_else(|| corrupt("short index key".into()))?;
            let ukey = Bytes::copy_from_slice(ukey);
            off += n;
            let boff = get_u64(body, off).ok_or_else(|| corrupt("short index off".into()))?;
            off += 8;
            let blen = get_u32(body, off).ok_or_else(|| corrupt("short index len".into()))?;
            off += 4;
            index.push(IndexEntry {
                prefix: key_prefix(&ukey),
                first: InternalKey { user_key: ukey, ts, kind },
                offset: boff,
                len: blen,
            });
        }

        let mut bloom_buf = vec![0u8; bloom_len as usize];
        file.read_exact_at(&mut bloom_buf, bloom_off)?;
        let bloom =
            Bloom::decode(&bloom_buf).ok_or_else(|| corrupt("bad bloom block".into()))?;

        Ok(Self {
            file,
            path,
            id,
            cache_ns: NEXT_CACHE_NS.fetch_add(1, AtomicOrdering::Relaxed),
            index,
            bloom,
            min_prefix: key_prefix(&min_key),
            max_prefix: key_prefix(&max_key),
            props: TableProperties { cell_count, min_key, max_key, max_ts, file_size },
            cache,
            metrics: None,
            block_reads: AtomicU64::new(0),
        })
    }

    /// Attach engine metrics so block-cache traffic from this table is
    /// surfaced through [`Metrics`]. Builder-style; used by the engine when
    /// it opens or creates tables.
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Table properties recorded at build time.
    pub fn properties(&self) -> &TableProperties {
        &self.props
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Unique id (block-cache namespace).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// True if the bloom filter rules out `user_key`.
    pub fn definitely_absent(&self, user_key: &[u8]) -> bool {
        !self.bloom.may_contain(user_key)
    }

    /// True if `user_key` is outside this table's `[min, max]` key range.
    pub fn outside_key_range(&self, user_key: &[u8]) -> bool {
        let p = key_prefix(user_key);
        // Strict prefix inequality implies the same strict key order, so
        // these bounds are conclusive; only prefix ties need the full keys.
        if p < self.min_prefix || p > self.max_prefix {
            return true;
        }
        user_key < self.props.min_key.as_ref() || user_key > self.props.max_key.as_ref()
    }

    /// Data block `idx`, from the cache if there; a block read from the
    /// file is cached only with `fill`. Only reads with `fill` count as
    /// cache hits or misses, so a compaction's reads do not skew the hit
    /// rate of the gets and scans.
    fn read_block(&self, idx: usize, fill: bool) -> Result<Arc<Block>> {
        let entry = &self.index[idx];
        if let Some(cache) = &self.cache {
            let metrics = self.metrics.as_ref().filter(|_| fill);
            if let Some(block) = cache.get(self.cache_ns, entry.offset) {
                if let Some(m) = metrics {
                    Metrics::bump(&m.block_cache_hits);
                }
                return Ok(block);
            }
            if let Some(m) = metrics {
                Metrics::bump(&m.block_cache_misses);
            }
        }
        self.block_reads.fetch_add(1, AtomicOrdering::Relaxed);
        let block = READ_BUF.with(|buf| {
            let buf = &mut *buf.borrow_mut();
            buf.resize(entry.len as usize, 0);
            self.file.read_exact_at(buf, entry.offset)?;
            let block = Block::decode(buf)
                .map_err(|m| LsmError::Corruption(format!("{}: block: {m}", self.path.display())));
            buf.shrink_to(READ_BUF_RETAIN);
            block
        })?;
        let block = Arc::new(block);
        if let Some(cache) = self.cache.as_ref().filter(|_| fill) {
            let evicted = cache.insert(self.cache_ns, entry.offset, Arc::clone(&block));
            if evicted > 0 {
                if let Some(m) = &self.metrics {
                    Metrics::add(&m.block_cache_evictions, evicted);
                }
            }
        }
        Ok(block)
    }

    /// Index of the block that could contain the target key parts, i.e. the
    /// last block whose first key is `<=` the target (or block 0).
    fn block_for_parts(&self, user_key: &[u8], ts: Timestamp, kind: CellKind) -> usize {
        let target_prefix = key_prefix(user_key);
        // partition_point: number of blocks with first <= target. The
        // inline prefix decides all but prefix-tied steps without touching
        // the out-of-line key.
        let pp = self.index.partition_point(|e| match e.prefix.cmp(&target_prefix) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => {
                cmp_internal(
                    (e.first.user_key.as_ref(), e.first.ts, e.first.kind),
                    (user_key, ts, kind),
                ) != Ordering::Greater
            }
        });
        pp.saturating_sub(1)
    }

    fn block_for(&self, target: &InternalKey) -> usize {
        self.block_for_parts(target.user_key.as_ref(), target.ts, target.kind)
    }

    /// Latest cell for `user_key` visible at `ts`, tombstones included.
    /// Allocation-free until a hit is materialized: the seek key is borrowed
    /// and each candidate block is binary-searched in place.
    pub fn get_versioned(&self, user_key: &[u8], ts: Timestamp) -> Result<Option<Cell>> {
        if self.outside_key_range(user_key) || self.definitely_absent(user_key) {
            return Ok(None);
        }
        self.probe_versioned(user_key, ts)
    }

    /// Like [`Table::get_versioned`], but skips the key-range and bloom
    /// pre-filters. For callers (the engine) that have already consulted
    /// them — the bloom probe costs several cache misses, so paying it twice
    /// per read is measurable on the warm hot path.
    pub fn probe_versioned(&self, user_key: &[u8], ts: Timestamp) -> Result<Option<Cell>> {
        // Seek kind Delete: sorts first at equal (key, ts), covering both
        // kinds — same convention as `InternalKey::seek_to`.
        let mut idx = self.block_for_parts(user_key, ts, CellKind::Delete);
        // The first cell >= seek may be at the start of the following block.
        loop {
            let block = self.read_block(idx, true)?;
            let pos = block.seek(user_key, ts, CellKind::Delete);
            if pos < block.len() {
                let (k, _, _) = block.key_parts(pos);
                if k == user_key {
                    return Ok(Some(block.cell(pos)));
                }
                return Ok(None);
            }
            idx += 1;
            if idx >= self.index.len() {
                return Ok(None);
            }
        }
    }

    /// Iterator over all cells from the first internal key `>= seek`
    /// (or from the beginning when `seek` is `None`).
    pub fn iter_from(&self, seek: Option<&InternalKey>) -> TableIter<'_> {
        let (block, pos) = match seek {
            None => (0, 0),
            Some(k) => (self.block_for(k), 0),
        };
        let mut it = TableIter {
            table: self,
            block,
            data: None,
            pos,
            error: None,
            fill_cache: true,
        };
        if let Some(k) = seek {
            it.skip_to(k);
        }
        it
    }

    /// Every cell, for a merge that replaces this table (compaction):
    /// like `iter_from(None)`, but a block read from the file is not
    /// cached. Nothing reads it again once the merge publishes, so caching
    /// it would only evict live blocks.
    pub(crate) fn iter_to_replace(&self) -> TableIter<'_> {
        TableIter { fill_cache: false, ..self.iter_from(None) }
    }

    /// Number of data blocks.
    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// Data blocks read from this table's file so far, block-cache hits
    /// excluded.
    pub fn block_reads(&self) -> u64 {
        self.block_reads.load(AtomicOrdering::Relaxed)
    }
}

/// Forward iterator over a table's cells in internal-key order. Holds one
/// decoded [`Block`] at a time; yielded cells are zero-copy slices of it.
/// A block that cannot be read (I/O error, failed checksum) is yielded as
/// one `Err` item, after which the iterator is exhausted.
pub struct TableIter<'a> {
    table: &'a Table,
    block: usize,
    data: Option<Arc<Block>>,
    pos: usize,
    error: Option<LsmError>,
    /// Cache the blocks read from the file.
    fill_cache: bool,
}

impl<'a> TableIter<'a> {
    fn load_block(&mut self) -> bool {
        if self.data.is_none() {
            if self.block >= self.table.index.len() {
                return false;
            }
            match self.table.read_block(self.block, self.fill_cache) {
                Ok(b) => {
                    self.data = Some(b);
                    self.pos = 0;
                }
                Err(e) => {
                    self.error = Some(e);
                    self.block = self.table.index.len();
                    return false;
                }
            }
        }
        true
    }

    fn skip_to(&mut self, seek: &InternalKey) {
        loop {
            if !self.load_block() {
                return;
            }
            let block = self.data.as_ref().unwrap();
            let pos = block.seek(seek.user_key.as_ref(), seek.ts, seek.kind);
            if pos < block.len() {
                self.pos = pos;
                return;
            }
            self.data = None;
            self.block += 1;
        }
    }
}

impl<'a> Iterator for TableIter<'a> {
    type Item = Result<Cell>;

    fn next(&mut self) -> Option<Result<Cell>> {
        loop {
            if !self.load_block() {
                return self.error.take().map(Err);
            }
            let block = self.data.as_ref().unwrap();
            if self.pos < block.len() {
                let c = block.cell(self.pos);
                self.pos += 1;
                return Some(Ok(c));
            }
            self.data = None;
            self.block += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempdir_lite::TempDir;

    fn build_table(dir: &TempDir, cells: &[Cell], opts: TableOptions) -> Table {
        let path = dir.path().join("t.sst");
        let mut b = TableBuilder::create(&path, opts).unwrap();
        for c in cells {
            b.add(c).unwrap();
        }
        b.finish().unwrap();
        Table::open(&path, 1, None).unwrap()
    }

    fn many_cells(n: usize) -> Vec<Cell> {
        (0..n).map(|i| Cell::put(format!("key{i:06}"), 100, format!("value-{i}"))).collect()
    }

    #[test]
    fn build_and_get_roundtrip() {
        let dir = TempDir::new("sst").unwrap();
        let t = build_table(&dir, &many_cells(1000), TableOptions::default());
        assert_eq!(t.properties().cell_count, 1000);
        assert!(t.block_count() > 1, "should span multiple blocks");
        for i in (0..1000).step_by(37) {
            let c = t.get_versioned(format!("key{i:06}").as_bytes(), u64::MAX).unwrap().unwrap();
            assert_eq!(c.value, Bytes::from(format!("value-{i}")));
        }
        assert!(t.get_versioned(b"missing", u64::MAX).unwrap().is_none());
    }

    #[test]
    fn versioned_get_respects_snapshot() {
        let dir = TempDir::new("sst").unwrap();
        let cells = vec![
            Cell::put("k", 30, "v30"),
            Cell::put("k", 20, "v20"),
            Cell::put("k", 10, "v10"),
        ];
        let t = build_table(&dir, &cells, TableOptions::default());
        assert_eq!(t.get_versioned(b"k", 35).unwrap().unwrap().value, Bytes::from("v30"));
        assert_eq!(t.get_versioned(b"k", 29).unwrap().unwrap().value, Bytes::from("v20"));
        assert_eq!(t.get_versioned(b"k", 10).unwrap().unwrap().value, Bytes::from("v10"));
        assert!(t.get_versioned(b"k", 9).unwrap().is_none());
    }

    #[test]
    fn tombstones_are_returned() {
        let dir = TempDir::new("sst").unwrap();
        let cells = vec![Cell::delete("k", 20), Cell::put("k", 10, "v")];
        let t = build_table(&dir, &cells, TableOptions::default());
        let c = t.get_versioned(b"k", 25).unwrap().unwrap();
        assert!(c.is_tombstone());
        assert_eq!(c.key.ts, 20);
    }

    #[test]
    fn get_crossing_block_boundary() {
        // Tiny blocks force nearly every key into its own block; the seek
        // target often lands at a block whose cells are all smaller.
        let dir = TempDir::new("sst").unwrap();
        let t = build_table(
            &dir,
            &many_cells(200),
            TableOptions { block_size: 16, bloom_bits_per_key: 10 },
        );
        assert!(t.block_count() >= 100);
        for i in 0..200 {
            let c = t.get_versioned(format!("key{i:06}").as_bytes(), u64::MAX).unwrap();
            assert!(c.is_some(), "key{i:06} must be found across block boundaries");
        }
    }

    #[test]
    fn iter_returns_everything_in_order() {
        let dir = TempDir::new("sst").unwrap();
        let cells = many_cells(500);
        let t = build_table(&dir, &cells, TableOptions { block_size: 256, bloom_bits_per_key: 10 });
        let got: Vec<Cell> = t.iter_from(None).collect::<Result<_>>().unwrap();
        assert_eq!(got, cells);
    }

    #[test]
    fn iter_from_seek_position() {
        let dir = TempDir::new("sst").unwrap();
        let cells = many_cells(100);
        let t = build_table(&dir, &cells, TableOptions { block_size: 64, bloom_bits_per_key: 10 });
        let seek = InternalKey::seek_to(Bytes::from("key000050"), u64::MAX);
        let got: Vec<Cell> = t.iter_from(Some(&seek)).collect::<Result<_>>().unwrap();
        assert_eq!(got.len(), 50);
        assert_eq!(got[0].key.user_key, Bytes::from("key000050"));
    }

    #[test]
    fn out_of_order_add_is_rejected() {
        let dir = TempDir::new("sst").unwrap();
        let mut b = TableBuilder::create(dir.path().join("t.sst"), TableOptions::default()).unwrap();
        b.add(&Cell::put("b", 5, "x")).unwrap();
        assert!(b.add(&Cell::put("a", 5, "y")).is_err());
        // Same key, newer timestamp sorts *earlier* — also rejected:
        assert!(b.add(&Cell::put("b", 9, "z")).is_err());
        // Same key, older timestamp is fine:
        b.add(&Cell::put("b", 3, "w")).unwrap();
    }

    #[test]
    fn empty_table_is_rejected() {
        let dir = TempDir::new("sst").unwrap();
        let b = TableBuilder::create(dir.path().join("t.sst"), TableOptions::default()).unwrap();
        assert!(b.finish().is_err());
    }

    #[test]
    fn properties_reflect_contents() {
        let dir = TempDir::new("sst").unwrap();
        let cells =
            vec![Cell::put("aaa", 7, "1"), Cell::put("mmm", 99, "2"), Cell::put("zzz", 12, "3")];
        let t = build_table(&dir, &cells, TableOptions::default());
        let p = t.properties();
        assert_eq!(p.min_key, Bytes::from("aaa"));
        assert_eq!(p.max_key, Bytes::from("zzz"));
        assert_eq!(p.max_ts, 99);
        assert_eq!(p.cell_count, 3);
        assert!(p.file_size > 0);
        assert!(t.outside_key_range(b"zzzz"));
        assert!(t.outside_key_range(b"a"));
        assert!(!t.outside_key_range(b"nnn"));
    }

    #[test]
    fn corrupt_footer_magic_rejected() {
        let dir = TempDir::new("sst").unwrap();
        let path = dir.path().join("t.sst");
        let mut b = TableBuilder::create(&path, TableOptions::default()).unwrap();
        b.add(&Cell::put("k", 1, "v")).unwrap();
        b.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Table::open(&path, 1, None), Err(LsmError::Corruption(_))));
    }

    #[test]
    fn corrupt_data_block_detected_on_read() {
        let dir = TempDir::new("sst").unwrap();
        let path = dir.path().join("t.sst");
        let mut b = TableBuilder::create(&path, TableOptions::default()).unwrap();
        for c in many_cells(50) {
            b.add(&c).unwrap();
        }
        b.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0xFF; // inside first data block
        std::fs::write(&path, &bytes).unwrap();
        let t = Table::open(&path, 1, None).unwrap();
        let err = t.get_versioned(b"key000000", u64::MAX).unwrap_err();
        assert!(matches!(err, LsmError::Corruption(_)));
    }

    #[test]
    fn truncated_file_rejected() {
        let dir = TempDir::new("sst").unwrap();
        let path = dir.path().join("t.sst");
        std::fs::write(&path, b"tiny").unwrap();
        assert!(matches!(Table::open(&path, 1, None), Err(LsmError::Corruption(_))));
    }

    #[test]
    fn block_roundtrip_and_binary_search() {
        let cells = vec![
            Cell::put("a", 9, "a9"),
            Cell::put("a", 2, "a2"),
            Cell::delete("b", 5),
            Cell::put("b", 5, "b5"),
            Cell::put("c", 1, "c1"),
        ];
        let block = Block::from_cells(&cells);
        assert_eq!(block.len(), 5);
        assert!(!block.is_empty());
        for (i, want) in cells.iter().enumerate() {
            assert_eq!(&block.cell(i), want, "cell {i}");
            let (k, ts, kind) = block.key_parts(i);
            assert_eq!(k, want.key.user_key.as_ref());
            assert_eq!(ts, want.key.ts);
            assert_eq!(kind, want.key.kind);
        }
        // seek returns the first cell >= the target in internal-key order.
        assert_eq!(block.seek(b"a", u64::MAX, CellKind::Delete), 0);
        assert_eq!(block.seek(b"a", 5, CellKind::Delete), 1, "a@5 -> a@2");
        assert_eq!(block.seek(b"b", 5, CellKind::Delete), 2, "tombstone first");
        assert_eq!(block.seek(b"b", 5, CellKind::Put), 3);
        assert_eq!(block.seek(b"c", 0, CellKind::Delete), 5, "past the end");
        assert_eq!(block.seek(b"zz", u64::MAX, CellKind::Delete), 5);
    }

    #[test]
    fn block_seek_agrees_with_linear_scan() {
        let cells = many_cells(300);
        let block = Block::from_cells(&cells);
        for probe in ["key000000", "key000137", "key000299", "key000300", "aaa"] {
            let want = cells
                .iter()
                .position(|c| c.key >= InternalKey::seek_to(Bytes::from(probe), u64::MAX))
                .unwrap_or(cells.len());
            assert_eq!(
                block.seek(probe.as_bytes(), u64::MAX, CellKind::Delete),
                want,
                "probe {probe}"
            );
        }
    }

    #[test]
    fn block_decode_rejects_garbage() {
        assert_eq!(Block::decode(&[1, 2]).unwrap_err(), "short block", "shorter than crc");
        let with_crc = |mut body: Vec<u8>| {
            let crc = crate::util::crc32(&body);
            put_u32(&mut body, crc);
            Block::decode(&body).unwrap_err()
        };
        // 9 is not a valid cell kind.
        assert_eq!(with_crc(vec![9u8; 10]), "bad cell kind");
        // One whole cell, then a second cut short in each field.
        let mut whole = vec![CellKind::Put.to_u8()];
        put_varint(&mut whole, 300);
        put_len_prefixed(&mut whole, b"key");
        put_len_prefixed(&mut whole, b"value");
        let cut = |tail: &[u8]| [whole.as_slice(), tail].concat();
        let put = CellKind::Put.to_u8();
        assert_eq!(with_crc(cut(&[put])), "short ts", "no ts");
        assert_eq!(with_crc(cut(&[put, 0xAC])), "short ts", "ts varint cut mid-way");
        assert_eq!(with_crc(cut(&[put, 7])), "short key", "no key length");
        assert_eq!(with_crc(cut(&[put, 7, 3, b'k', b'e'])), "short key", "key cut");
        assert_eq!(with_crc(cut(&[put, 7, 1, b'k'])), "short value", "no value length");
        assert_eq!(with_crc(cut(&[put, 7, 1, b'k', 5, b'v'])), "short value", "value cut");
    }

    /// Sorted, de-duplicated cells whose keys mostly share one of a few
    /// 16-byte prefixes (so seeks must resolve prefix ties by parsing),
    /// with a mix of timestamps, kinds and value lengths.
    fn random_cells(rng: &mut rand::rngs::StdRng, n: usize) -> Vec<Cell> {
        use rand::RngExt;
        const PREFIXES: [&[u8]; 3] = [b"shared-prefix-00", b"shared-prefix-01", b"short"];
        let mut cells: Vec<Cell> = (0..n)
            .map(|_| {
                let mut key = PREFIXES[rng.random_range(0..PREFIXES.len())].to_vec();
                for _ in 0..rng.random_range(0..4usize) {
                    key.push(b"\0ab\xff"[rng.random_range(0..4usize)]);
                }
                let ts = rng.random_range(0..5u64);
                if rng.random_range(0..4u32) == 0 {
                    Cell::delete(key, ts)
                } else {
                    Cell::put(key, ts, vec![b'v'; rng.random_range(0..300usize)])
                }
            })
            .collect();
        cells.sort_by(|a, b| a.key.cmp(&b.key));
        cells.dedup_by(|a, b| a.key == b.key);
        cells
    }

    #[test]
    fn block_read_through_table_matches_from_cells_and_linear_reference() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB10C);
        let dir = TempDir::new("sst").unwrap();
        for round in 0..200 {
            let n = rng.random_range(1..201usize);
            let cells = random_cells(&mut rng, n);
            let path = dir.path().join(format!("t{round}.sst"));
            let opts = TableOptions { block_size: 1 << 20, bloom_bits_per_key: 10 };
            let mut b = TableBuilder::create(&path, opts).unwrap();
            for c in &cells {
                b.add(c).unwrap();
            }
            b.finish().unwrap();
            let table = Table::open(&path, 1, None).unwrap();
            assert_eq!(table.block_count(), 1);
            let read = table.read_block(0, true).unwrap();
            let built = Block::from_cells(&cells);
            assert_eq!((read.len(), built.len()), (cells.len(), cells.len()), "round {round}");
            assert_eq!(read.size_bytes(), built.size_bytes());
            for (i, want) in cells.iter().enumerate() {
                assert_eq!(read.cell(i), *want, "round {round} cell {i}");
                assert_eq!(built.cell(i), *want, "round {round} cell {i}");
            }
            // Every stored key at neighbouring versions and both kinds, plus
            // keys that fall between, before and after the stored ones.
            let mut probes: Vec<(Vec<u8>, Timestamp)> = cells
                .iter()
                .flat_map(|c| {
                    (c.key.ts.saturating_sub(1)..=c.key.ts + 1)
                        .map(|ts| (c.key.user_key.to_vec(), ts))
                })
                .collect();
            probes.extend(
                random_cells(&mut rng, 20).into_iter().map(|c| (c.key.user_key.to_vec(), c.key.ts)),
            );
            probes.extend([(Vec::new(), 0), (b"shared-prefix-0".to_vec(), 3), (vec![0xFF; 20], 1)]);
            for (key, ts) in &probes {
                for kind in [CellKind::Delete, CellKind::Put] {
                    let want = cells
                        .iter()
                        .position(|c| {
                            cmp_internal((&c.key.user_key, c.key.ts, c.key.kind), (key, *ts, kind))
                                != Ordering::Less
                        })
                        .unwrap_or(cells.len());
                    let at = format!("round {round} {key:?}@{ts} {kind:?}");
                    assert_eq!(read.seek(key, *ts, kind), want, "{at}");
                    assert_eq!(built.seek(key, *ts, kind), want, "{at}");
                }
            }
        }
    }

    #[test]
    fn block_decode_detects_every_single_bit_flip() {
        let cells: Vec<Cell> =
            (0..36).map(|i| Cell::put(format!("key{i:06}"), i + 1, vec![b'v'; 100])).collect();
        let body = Block::from_cells(&cells).data.to_vec();
        // A ~4 KiB body whose length leaves a tail for the bytewise CRC loop.
        assert!(body.len() > 4000 && !body.len().is_multiple_of(16), "body length {}", body.len());
        let mut buf = body.clone();
        put_u32(&mut buf, crate::util::crc32(&body));
        for pos in 0..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 1 << (pos % 8);
            assert_eq!(Block::decode(&bad).unwrap_err(), "checksum mismatch", "byte {pos}");
        }
    }

    #[test]
    fn table_get_with_metrics_counts_cache_traffic() {
        let dir = TempDir::new("sst").unwrap();
        let path = dir.path().join("t.sst");
        let mut b = TableBuilder::create(&path, TableOptions::default()).unwrap();
        for c in many_cells(100) {
            b.add(&c).unwrap();
        }
        b.finish().unwrap();
        let cache = Arc::new(BlockCache::new(1 << 20));
        let metrics = Arc::new(Metrics::new());
        let t = Table::open(&path, 7, Some(Arc::clone(&cache)))
            .unwrap()
            .with_metrics(Arc::clone(&metrics));
        t.get_versioned(b"key000010", u64::MAX).unwrap().unwrap();
        t.get_versioned(b"key000010", u64::MAX).unwrap().unwrap();
        let s = metrics.snapshot();
        assert_eq!(s.block_cache_misses, 1);
        assert!(s.block_cache_hits >= 1);
    }

    #[test]
    fn block_cache_serves_repeat_reads() {
        let dir = TempDir::new("sst").unwrap();
        let path = dir.path().join("t.sst");
        let mut b = TableBuilder::create(&path, TableOptions::default()).unwrap();
        for c in many_cells(100) {
            b.add(&c).unwrap();
        }
        b.finish().unwrap();
        let cache = Arc::new(BlockCache::new(1 << 20));
        let metrics = Arc::new(Metrics::new());
        let t = Table::open(&path, 7, Some(cache)).unwrap().with_metrics(Arc::clone(&metrics));
        t.get_versioned(b"key000010", u64::MAX).unwrap().unwrap();
        let misses_after_first = metrics.snapshot().block_cache_misses;
        t.get_versioned(b"key000010", u64::MAX).unwrap().unwrap();
        let s = metrics.snapshot();
        assert_eq!(s.block_cache_misses, misses_after_first, "second read must hit cache");
        assert!(s.block_cache_hits >= 1);
    }
}
