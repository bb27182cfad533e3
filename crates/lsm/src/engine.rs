//! The LSM tree engine: durable `put`/`get`/`delete`/`scan` over one
//! memtable, one write-ahead log segment, and a stack of SSTables, with
//! flush and compaction (Figure 2 of the paper).
//!
//! One `LsmTree` corresponds to one column-family store inside one region —
//! a region server in `diff-index-cluster` hosts many of them.
//!
//! ## Read-path concurrency
//!
//! Reads are served from an immutable `Snapshot` — the active memtable,
//! a list of frozen (flushing) memtables, and the SSTable stack — published
//! behind an atomically swapped `Arc`. A reader clones the `Arc` once and
//! then works entirely from its private view: memtable probes take a brief
//! in-memory lock each, and table probes hold **no lock at all**, so disk
//! I/O never blocks writers, flushes, or compactions (and vice versa).
//!
//! Flush freezes the active memtable by publishing a new snapshot (fresh
//! active in front, old active appended to the frozen list) under the write
//! lock, then builds the SSTable from the frozen memtable with no locks
//! held. Compaction likewise merges a private clone of the table stack.
//! This mirrors RocksDB's "superversion" scheme.
//!
//! ## Column groups
//!
//! The owner may sort keys into *column groups* ([`LsmTree::set_groups_hook`]).
//! The tree still has one memtable and one WAL; only flush and compaction
//! change: each writes one SSTable per non-empty group, so a group's cells
//! share blocks only with each other. Reads need no change: a point get
//! skips the other groups' tables on their bloom filters, and scans merge
//! every table as before. The tables one flush or compaction writes form
//! one *run*, and the compaction trigger counts runs, not files.
//!
//! ## Write-path concurrency (group commit)
//!
//! A write is split into *staging* and *durability*. [`LsmTree::stage_batch`]
//! holds the `write_state` lock only for in-memory work: it appends the
//! record to the WAL's user-space buffer and inserts into the active
//! memtable, assigning the record a monotonically increasing sequence
//! number. [`LsmTree::complete`] then waits for that sequence to become
//! durable. In `wal_sync` mode one waiter at a time elects itself the
//! **group-commit leader**: it flushes the WAL buffer, fsyncs an
//! independent clone of the segment file with **no lock held**, and
//! advances `durable_seq` past every record staged before the fsync — so N
//! concurrent writers share one fsync instead of paying one each.
//!
//! Lock order: `maintenance` → `write_state` → `durability`. The leader
//! never holds `durability` while acquiring `write_state` (it drops the
//! guard first), so there is no hold-and-wait cycle with flushes, which
//! take `write_state` then `durability` when rolling the WAL.

use crate::bloom::hash_pair;
use crate::cache::BlockCache;
use crate::compaction::{gc_merge, should_compact, GcPolicy};
use crate::faults::{injected_error, FaultPlan, FaultPoint};
use crate::memtable::MemTable;
use crate::merge::{MergeIter, VisibleIter};
use crate::metrics::Metrics;
use crate::sstable::{Table, TableBuilder, TableIter, TableOptions};
use crate::types::{Cell, CellKind, InternalKey, LsmError, Result, Timestamp, VersionedValue};
use crate::wal::{replay, WalWriter};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex, RwLock};
use std::cell::RefCell;
use std::collections::btree_map::{BTreeMap, Entry};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Engine tuning options.
#[derive(Clone)]
pub struct LsmOptions {
    /// Flush the memtable once its approximate size exceeds this
    /// (`usize::MAX` = never; flush only on demand).
    pub memtable_flush_bytes: usize,
    /// SSTable construction knobs.
    pub table: TableOptions,
    /// `fsync` the WAL on every append (true = fully durable, slower).
    pub wal_sync: bool,
    /// Shared block cache; `None` disables caching.
    pub block_cache: Option<Arc<BlockCache>>,
    /// Trigger a major compaction when this many tables exist (0 = never).
    pub compaction_trigger: usize,
    /// Shadowed versions younger than this many timestamp units survive
    /// compaction, so recent `RB(k, t−δ)` snapshot reads stay answerable.
    pub version_retention: Timestamp,
}

impl Default for LsmOptions {
    fn default() -> Self {
        Self {
            memtable_flush_bytes: 4 * 1024 * 1024,
            table: TableOptions::default(),
            wal_sync: false,
            block_cache: Some(Arc::new(BlockCache::new(32 * 1024 * 1024))),
            compaction_trigger: 4,
            version_retention: 60_000,
        }
    }
}

impl std::fmt::Debug for LsmOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LsmOptions")
            .field("memtable_flush_bytes", &self.memtable_flush_bytes)
            .field("wal_sync", &self.wal_sync)
            .field("compaction_trigger", &self.compaction_trigger)
            .field("version_retention", &self.version_retention)
            .finish()
    }
}

/// Hook invoked around memtable flushes. Diff-Index registers a `pre_flush`
/// hook that pauses and drains the AUQ (the paper's Figure 5: "1. pause &
/// drain" happens before "2. flush" and "3. roll forward").
pub type FlushHook = Box<dyn Fn() + Send + Sync>;

/// The column group of a user key. Flush and compaction write the cells of
/// each group to their own SSTable.
pub type KeyGroups = Arc<dyn Fn(&[u8]) -> usize + Send + Sync>;

/// Asked at the start of every flush and compaction for the [`KeyGroups`]
/// to write by; `None` writes every cell to one table.
pub type GroupsHook = Box<dyn Fn() -> Option<KeyGroups> + Send + Sync>;

/// A memtable handle shared between the write path and snapshots. Only the
/// snapshot's *active* handle is ever written to; frozen handles are
/// immutable, so their lock is uncontended.
type MemHandle = Arc<RwLock<MemTable>>;

/// One immutable view of the tree. Readers clone the current `Arc<Snapshot>`
/// and keep every component alive for the duration of their operation, even
/// if a concurrent flush or compaction publishes a newer snapshot and
/// unlinks the files they are reading (POSIX keeps open files readable).
struct Snapshot {
    /// The memtable accepting writes (in the *current* snapshot only).
    active: MemHandle,
    /// Memtables frozen by an in-flight flush, newest first.
    frozen: Vec<MemHandle>,
    /// On-disk tables, newest first.
    tables: Vec<Arc<Table>>,
}

/// State owned by the write path, serializing WAL appends, memtable inserts
/// and file-number allocation. Held only for in-memory work plus the WAL
/// append — never across SSTable builds.
struct WriteState {
    wal: Option<WalWriter>,
    wal_no: u64,
    next_file_no: u64,
    /// WAL segments superseded by a freeze but not yet safe to delete
    /// (their data is still only in a frozen memtable).
    pending_wals: Vec<u64>,
    /// Sequence number of the newest record staged into the WAL buffer.
    /// Monotonic across segment rolls.
    staged_seq: u64,
}

/// Group-commit bookkeeping, guarded by its own mutex so waiters never
/// contend with the staging fast path.
struct DurabilityState {
    /// Every record with `seq <= durable_seq` is on stable storage.
    durable_seq: u64,
    /// True while some thread (the group-commit leader) is fsyncing.
    syncing: bool,
}

/// A staged, not-yet-completed write: the sequence number to wait on for
/// durability plus whether the memtable crossed the flush threshold.
#[derive(Debug, Clone, Copy)]
#[must_use = "a staged write is not durable (nor flushed) until passed to LsmTree::complete"]
pub struct WriteHandle {
    seq: u64,
    needs_flush: bool,
}

/// A single LSM tree, durable under a directory.
pub struct LsmTree {
    dir: PathBuf,
    opts: LsmOptions,
    /// The current snapshot; swapped atomically (brief lock, no I/O).
    current: RwLock<Arc<Snapshot>>,
    write_state: Mutex<WriteState>,
    durability: Mutex<DurabilityState>,
    durable_cv: Condvar,
    /// Serializes flush/compaction against each other. Guards the number
    /// of runs in the table stack: the compaction trigger's count.
    maintenance: Mutex<usize>,
    metrics: Arc<Metrics>,
    pre_flush_hooks: RwLock<Vec<FlushHook>>,
    post_flush_hooks: RwLock<Vec<FlushHook>>,
    groups_hook: RwLock<Option<GroupsHook>>,
    /// Fault plan consulted at the WAL append and fsync crash points;
    /// shared with the owning cluster, unarmed in production.
    faults: Arc<FaultPlan>,
}

impl std::fmt::Debug for LsmTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LsmTree").field("dir", &self.dir).finish()
    }
}

fn wal_path(dir: &Path, no: u64) -> PathBuf {
    dir.join(format!("wal-{no:010}.log"))
}

/// A table iterator's cells, for a merge. A block that cannot be read ends
/// the stream and parks its error in `failed` (the first one wins); the
/// caller must check it once the merge is consumed.
fn table_cells<'a>(
    cells: TableIter<'a>,
    failed: &'a RefCell<Option<LsmError>>,
) -> impl Iterator<Item = Cell> + 'a {
    cells.map_while(move |cell| {
        cell.map_err(|e| {
            failed.borrow_mut().get_or_insert(e);
        })
        .ok()
    })
}

/// Keep `c` in `best` if it is newer: a smaller internal key.
fn keep_newer(best: &mut Option<Cell>, c: Cell) {
    if best.as_ref().is_none_or(|b| c.key < b.key) {
        *best = Some(c);
    }
}

fn table_path(dir: &Path, no: u64) -> PathBuf {
    dir.join(format!("{no:010}.sst"))
}

/// One run being written: a sorted cell stream split into one SSTable per
/// non-empty column group, each created on its group's first cell.
struct RunWriter<'a> {
    tree: &'a LsmTree,
    groups: Option<KeyGroups>,
    builders: BTreeMap<usize, (u64, TableBuilder)>,
}

impl<'a> RunWriter<'a> {
    fn new(tree: &'a LsmTree) -> Self {
        let groups = tree.groups_hook.read().as_ref().and_then(|hook| hook());
        Self { tree, groups, builders: BTreeMap::new() }
    }

    fn add(&mut self, cell: &Cell) -> Result<()> {
        let group = self.groups.as_ref().map_or(0, |groups| groups(&cell.key.user_key));
        let builder = match self.builders.entry(group) {
            Entry::Occupied(e) => &mut e.into_mut().1,
            Entry::Vacant(e) => {
                let no = self.tree.next_file_no();
                let path = table_path(&self.tree.dir, no);
                &mut e.insert((no, TableBuilder::create(path, self.tree.opts.table.clone())?)).1
            }
        };
        builder.add(cell)
    }

    /// Finish and open every table of the run; also returns the bytes
    /// written. Every table is written out before the first is synced, so
    /// the run's fsyncs follow one another.
    fn finish(self) -> Result<(Vec<Arc<Table>>, u64)> {
        let written = self
            .builders
            .into_values()
            .map(|(no, builder)| Ok((no, builder.path().to_path_buf(), builder.write_out()?)))
            .collect::<Result<Vec<_>>>()?;
        let mut tables = Vec::with_capacity(written.len());
        let mut bytes = 0;
        for (no, path, table) in written {
            bytes += table.sync()?.file_size;
            tables.push(Arc::new(
                Table::open(path, no, self.tree.opts.block_cache.clone())?
                    .with_metrics(Arc::clone(&self.tree.metrics)),
            ));
        }
        Ok((tables, bytes))
    }

    /// Delete the run's partly written files.
    fn abandon(self) {
        for (_, builder) in self.builders.into_values() {
            let path = builder.path().to_path_buf();
            drop(builder);
            let _ = std::fs::remove_file(path);
        }
    }
}

impl LsmTree {
    /// Open (or create) an engine under `dir`, replaying any WAL segments
    /// left behind by a crash.
    pub fn open(dir: impl Into<PathBuf>, opts: LsmOptions) -> Result<Self> {
        Ok(Self::open_with_replay(dir, opts, Arc::default())?.0)
    }

    /// Like [`LsmTree::open`], but consults `faults` at the WAL crash points
    /// and also returns the cells recovered from WAL replay. Diff-Index's
    /// failure-recovery protocol (§5.3 of the paper) re-enqueues every
    /// replayed base put into the AUQ, so the caller needs to see them.
    pub fn open_with_replay(
        dir: impl Into<PathBuf>,
        opts: LsmOptions,
        faults: Arc<FaultPlan>,
    ) -> Result<(Self, Vec<Cell>)> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let metrics = Arc::new(Metrics::new());

        // 1. Manifest → live tables.
        let (table_nos, mut next_file_no) = read_manifest(&dir)?;
        let mut tables = Vec::with_capacity(table_nos.len());
        for &no in table_nos.iter().rev() {
            // Manifest lists oldest first; we keep newest first.
            tables.push(Arc::new(
                Table::open(table_path(&dir, no), no, opts.block_cache.clone())?
                    .with_metrics(Arc::clone(&metrics)),
            ));
        }

        // 2. Replay leftover WAL segments (oldest first) into the memtable.
        let mut wal_nos: Vec<u64> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let num = name.strip_prefix("wal-")?.strip_suffix(".log")?;
                num.parse::<u64>().ok()
            })
            .collect();
        wal_nos.sort_unstable();
        let mut memtable = MemTable::new();
        let mut replayed = Vec::new();
        for &no in &wal_nos {
            let r = replay(wal_path(&dir, no))?;
            if r.torn_tail {
                Metrics::bump(&metrics.wal_torn_tails);
            }
            for c in r.cells {
                replayed.push(c);
            }
            next_file_no = next_file_no.max(no + 1);
        }
        for c in &replayed {
            memtable.insert(c.clone());
        }

        // 3. Fresh WAL segment; re-log replayed cells so a second crash
        //    before the next flush still recovers them, then drop the old
        //    segments.
        let wal_no = next_file_no;
        next_file_no += 1;
        let mut wal = WalWriter::create(wal_path(&dir, wal_no), opts.wal_sync)?;
        if !replayed.is_empty() {
            wal.append(&replayed)?;
            wal.sync()?;
        }
        for &no in &wal_nos {
            std::fs::remove_file(wal_path(&dir, no))?;
        }

        // Which manifest tables one run wrote is not recorded, so each
        // counts as a run of its own: a grouped tree may compact early once
        // after a reopen, never late.
        let runs = tables.len();
        let tree = Self {
            dir,
            opts,
            current: RwLock::new(Arc::new(Snapshot {
                active: Arc::new(RwLock::new(memtable)),
                frozen: Vec::new(),
                tables,
            })),
            write_state: Mutex::new(WriteState {
                wal: Some(wal),
                wal_no,
                next_file_no,
                pending_wals: Vec::new(),
                staged_seq: 0,
            }),
            durability: Mutex::new(DurabilityState { durable_seq: 0, syncing: false }),
            durable_cv: Condvar::new(),
            maintenance: Mutex::new(runs),
            metrics,
            pre_flush_hooks: RwLock::new(Vec::new()),
            post_flush_hooks: RwLock::new(Vec::new()),
            groups_hook: RwLock::new(None),
            faults,
        };
        Ok((tree, replayed))
    }

    /// Directory this engine persists under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Engine counters.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Register a hook that runs immediately before each memtable flush.
    pub fn add_pre_flush_hook(&self, hook: FlushHook) {
        self.pre_flush_hooks.write().push(hook);
    }

    /// Register a hook that runs immediately after each memtable flush.
    pub fn add_post_flush_hook(&self, hook: FlushHook) {
        self.post_flush_hooks.write().push(hook);
    }

    /// Install the hook flush and compaction ask for the column groups to
    /// split their output by (see the module docs). Replaces any earlier
    /// hook. Tables already written keep their cells until compacted.
    pub fn set_groups_hook(&self, hook: GroupsHook) {
        *self.groups_hook.write() = Some(hook);
    }

    /// Allocate a file number (table or WAL segment).
    fn next_file_no(&self) -> u64 {
        let mut ws = self.write_state.lock();
        ws.next_file_no += 1;
        ws.next_file_no - 1
    }

    /// Clone the current snapshot `Arc`. The lock protects only the pointer
    /// swap; it is never held across any I/O.
    fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read())
    }

    /// Atomically install a new snapshot. Callers (flush/compaction) are
    /// serialized by the maintenance lock, so swaps never race each other.
    fn publish(&self, snap: Arc<Snapshot>) {
        *self.current.write() = snap;
    }

    // -- writes ------------------------------------------------------------

    /// Append a batch of cells atomically (one WAL record): stage, then
    /// wait for group-commit durability. Callers that hold a coarser lock
    /// around timestamp assignment should instead call
    /// [`LsmTree::stage_batch`] inside it and [`LsmTree::complete`] outside,
    /// so unrelated writers share the durability wait.
    pub fn write_batch(&self, cells: &[Cell]) -> Result<()> {
        match self.stage_batch(cells)? {
            Some(handle) => self.complete(handle),
            None => Ok(()),
        }
    }

    /// Write N `(key, ts, value)` cells as **one** WAL record and **one**
    /// memtable apply under a single `write_state` acquisition.
    pub fn put_batch(&self, entries: &[(Bytes, Timestamp, Bytes)]) -> Result<()> {
        let cells: Vec<Cell> = entries
            .iter()
            .map(|(k, ts, v)| Cell::put(k.clone(), *ts, v.clone()))
            .collect();
        self.write_batch(&cells)
    }

    /// Stage a batch: one buffered WAL append plus the memtable apply,
    /// under one `write_state` acquisition — **no fsync, no flush**. The
    /// write is visible to readers immediately but is not durable until
    /// [`LsmTree::complete`] (or a later group commit) covers its sequence
    /// number. Returns `None` for empty batches, which cost nothing.
    pub fn stage_batch(&self, cells: &[Cell]) -> Result<Option<WriteHandle>> {
        if cells.is_empty() {
            return Ok(None);
        }
        if self.faults.take(FaultPoint::WalAppend) {
            // Injected *before* anything is staged: the write fails
            // wholesale, exactly like a disk-full on the WAL append.
            return Err(injected_error("wal append"));
        }
        let mut ws = self.write_state.lock();
        let wal = ws.wal.as_mut().ok_or_else(engine_closed)?;
        wal.append_buffered(cells)?;
        if !self.opts.wal_sync {
            // Keep non-durable mode's old contract: bytes reach the OS on
            // every append, so a clean process exit loses nothing.
            wal.flush_os_buffer()?;
        }
        ws.staged_seq += 1;
        let seq = ws.staged_seq;
        Metrics::bump(&self.metrics.wal_appends);
        // The write-state lock also blocks freezes, so this snapshot's
        // `active` handle is guaranteed to be the live one.
        let snap = self.snapshot();
        let mut active = snap.active.write();
        for c in cells {
            match c.key.kind {
                CellKind::Put => Metrics::bump(&self.metrics.puts),
                CellKind::Delete => Metrics::bump(&self.metrics.deletes),
            }
            active.insert(c.clone());
        }
        let needs_flush = active.approximate_bytes() >= self.opts.memtable_flush_bytes;
        Ok(Some(WriteHandle { seq, needs_flush }))
    }

    /// Second half of a staged write: wait until the record is durable
    /// (in `wal_sync` mode), then run the auto-flush the staging detected.
    pub fn complete(&self, handle: WriteHandle) -> Result<()> {
        if self.opts.wal_sync {
            self.wait_durable(handle.seq)?;
        }
        if handle.needs_flush {
            self.flush()?;
        }
        Ok(())
    }

    /// Block until every record with sequence `<= seq` is on stable
    /// storage, electing this thread group-commit leader if no fsync is in
    /// flight. Followers park on the condvar and are released in one
    /// `notify_all` when the leader's fsync covers them.
    fn wait_durable(&self, seq: u64) -> Result<()> {
        let mut d = self.durability.lock();
        loop {
            if d.durable_seq >= seq {
                return Ok(());
            }
            if d.syncing {
                self.durable_cv.wait(&mut d);
                continue;
            }
            d.syncing = true;
            let already_durable = d.durable_seq;
            drop(d);
            let synced = self.sync_wal();
            d = self.durability.lock();
            d.syncing = false;
            let failed = match synced {
                Ok(upto) => {
                    if upto > d.durable_seq {
                        Metrics::bump(&self.metrics.wal_fsyncs);
                        Metrics::add(&self.metrics.group_commit_records, upto - already_durable);
                        d.durable_seq = upto;
                    }
                    None
                }
                Err(e) => Some(e),
            };
            // Wake followers either way: on failure each retries leadership
            // and reports its own error rather than trusting a clone.
            self.durable_cv.notify_all();
            if let Some(e) = failed {
                return Err(e);
            }
        }
    }

    /// Flush the WAL's user-space buffer and fsync the segment. The fsync
    /// runs on the segment's shared file handle with **no lock held**, so
    /// writers keep staging into the buffer while the leader waits on the
    /// disk.
    /// Returns the staged sequence the fsync is guaranteed to cover.
    fn sync_wal(&self) -> Result<u64> {
        let (file, upto) = {
            let mut ws = self.write_state.lock();
            let upto = ws.staged_seq;
            let wal = ws.wal.as_mut().ok_or_else(engine_closed)?;
            (wal.flush_for_sync()?, upto)
        };
        if self.faults.take(FaultPoint::WalFsync) {
            // The buffer already reached the OS file (flush_for_sync), so
            // the record is *applied but unacked*: a crash + replay will
            // recover it even though the writer saw an error — §5.3's
            // ambiguous-outcome window, which recovery must repair.
            return Err(injected_error("wal fsync"));
        }
        file.sync_data()?;
        Ok(upto)
    }

    /// Write one value cell.
    pub fn put(&self, key: impl Into<Bytes>, ts: Timestamp, value: impl Into<Bytes>) -> Result<()> {
        self.write_batch(&[Cell::put(key.into(), ts, value.into())])
    }

    /// Write one tombstone.
    pub fn delete(&self, key: impl Into<Bytes>, ts: Timestamp) -> Result<()> {
        self.write_batch(&[Cell::delete(key.into(), ts)])
    }

    // -- reads ---------------------------------------------------------------

    /// Newest cell (tombstones included) for `key` visible at `ts`: a
    /// [`LsmTree::get_many`] of one key.
    pub fn get_versioned(&self, key: &[u8], ts: Timestamp) -> Result<Option<Cell>> {
        Ok(self.get_many(&[key], ts)?.pop().flatten())
    }

    /// Newest visible value for `key` at `ts`, hiding tombstones.
    pub fn get(&self, key: &[u8], ts: Timestamp) -> Result<Option<VersionedValue>> {
        Ok(self.get_versioned(key, ts)?.and_then(Cell::into_visible))
    }

    /// Newest cell (tombstones included) visible at `ts` for each of
    /// `keys`, in input order; duplicates are answered twice. The batch
    /// shares one snapshot and one read guard per memtable, hashes each key
    /// once for every table's bloom filter, and adds to the `gets` and
    /// table counters once.
    pub fn get_many<K: AsRef<[u8]>>(&self, keys: &[K], ts: Timestamp) -> Result<Vec<Option<Cell>>> {
        Metrics::add(&self.metrics.gets, keys.len() as u64);
        let snap = self.snapshot();
        // Memtable probes: one brief in-memory lock each; no disk I/O.
        let mut best: Vec<Option<Cell>> = {
            let active = snap.active.read();
            keys.iter().map(|key| active.get_versioned(key.as_ref(), ts)).collect()
        };
        for mem in &snap.frozen {
            let mem = mem.read();
            for (key, best) in keys.iter().zip(&mut best) {
                if let Some(c) = mem.get_versioned(key.as_ref(), ts) {
                    keep_newer(best, c);
                }
            }
        }
        // Table probes: no lock held; disk I/O never blocks the write path.
        let (mut probed, mut skipped) = (0, 0);
        let probes = keys.iter().zip(&mut best).try_for_each(|(key, best)| {
            let key = key.as_ref();
            let mut hash = None;
            for table in &snap.tables {
                // No older table can beat a candidate at least as new as
                // everything the table holds.
                if best.as_ref().is_some_and(|b| b.key.ts >= table.properties().max_ts)
                    || table.outside_key_range(key)
                    || table.definitely_absent(*hash.get_or_insert_with(|| hash_pair(key)))
                {
                    skipped += 1;
                    continue;
                }
                probed += 1;
                if let Some(c) = table.probe_versioned(key, ts)? {
                    keep_newer(best, c);
                }
            }
            Ok(())
        });
        Metrics::add(&self.metrics.tables_probed, probed);
        Metrics::add(&self.metrics.tables_skipped, skipped);
        probes.map(|()| best)
    }

    /// Latest visible value (snapshot = ∞).
    pub fn get_latest(&self, key: &[u8]) -> Result<Option<VersionedValue>> {
        self.get(key, Timestamp::MAX)
    }

    /// Scan user keys in `[start, end)` at snapshot `ts`, returning up to
    /// `limit` visible rows (newest visible version per key).
    ///
    /// Holds read guards on the memtables for the duration of the merge
    /// (writers to the active memtable may briefly wait), but never blocks
    /// flush or compaction: freezing swaps handles without locking the old
    /// active, and table iteration works off this scan's private snapshot.
    pub fn scan(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        ts: Timestamp,
        limit: usize,
    ) -> Result<Vec<(Bytes, VersionedValue)>> {
        Metrics::bump(&self.metrics.scans);
        let snap = self.snapshot();
        let seek = InternalKey::seek_to(Bytes::copy_from_slice(start), Timestamp::MAX);
        let end_owned: Option<Bytes> = end.map(Bytes::copy_from_slice);

        let failed = RefCell::new(None);
        let active_guard = snap.active.read();
        let frozen_guards: Vec<_> = snap.frozen.iter().map(|m| m.read()).collect();
        let mut sources: Vec<Box<dyn Iterator<Item = Cell> + '_>> = Vec::new();
        sources.push(Box::new(active_guard.range(start, end)));
        for g in &frozen_guards {
            sources.push(Box::new(g.range(start, end)));
        }
        for table in &snap.tables {
            let end_for_table = end_owned.clone();
            let it = table_cells(table.iter_from(Some(&seek)), &failed).take_while(move |c| {
                match &end_for_table {
                    Some(e) => c.key.user_key < *e,
                    None => true,
                }
            });
            sources.push(Box::new(it));
        }
        let merged = MergeIter::new(sources);
        let visible = VisibleIter::new(merged, ts);
        let rows = visible
            .take(limit)
            .map(|c| (c.key.user_key, VersionedValue { value: c.value, ts: c.key.ts }))
            .collect();
        match failed.into_inner() {
            Some(e) => Err(e),
            None => Ok(rows),
        }
    }

    // -- maintenance ---------------------------------------------------------

    /// Flush the memtable to a new run of SSTables (one per column group),
    /// then roll the WAL forward (delete the old segment). Runs the
    /// registered pre/post flush hooks. Compacts once the stack holds
    /// `compaction_trigger` runs.
    ///
    /// Writers are paused only while the active memtable is *frozen* (a
    /// pointer swap plus a WAL roll); the expensive SSTable build runs with
    /// no engine lock held, and readers are never blocked at all.
    pub fn flush(&self) -> Result<()> {
        let mut runs = self.maintenance.lock();
        // Paper §5.3 / Figure 5: "1. pause & drain (AUQ)" before flush.
        for hook in self.pre_flush_hooks.read().iter() {
            hook();
        }
        let result = self.flush_locked();
        // "4. resume" — even if the flush failed.
        for hook in self.post_flush_hooks.read().iter() {
            hook();
        }
        if result? {
            *runs += 1;
        }
        // Under the same lock, so two flushes that both reach the trigger
        // compact once.
        if should_compact(*runs, self.opts.compaction_trigger) {
            self.compact_locked(&mut runs)?;
        }
        Ok(())
    }

    /// Flush body; the caller holds the maintenance lock. Returns whether
    /// a run of tables was published.
    fn flush_locked(&self) -> Result<bool> {
        // Phase 1 — freeze. Under the write-state lock: roll the WAL and
        // publish a snapshot with a fresh active memtable, the old active
        // demoted to the frozen list. Writers resume as soon as this block
        // exits; readers were never blocked.
        let build_snap = {
            let mut ws = self.write_state.lock();
            if ws.wal.is_none() {
                // Halted: a flush would reopen a WAL and rewrite the
                // manifest under the engine recovery opened.
                return Err(engine_closed());
            }
            let snap = self.snapshot();
            let active_empty = snap.active.read().is_empty();
            if active_empty && snap.frozen.is_empty() {
                return Ok(false);
            }
            if active_empty {
                // Leftover frozen memtables from a failed earlier flush:
                // nothing new to freeze, just retry the build below.
                snap
            } else {
                let new_wal_no = ws.next_file_no;
                ws.next_file_no += 1;
                let old_wal_no = ws.wal_no;
                // Settle the outgoing segment before swapping it out: every
                // record staged so far lives in it (or an older, already
                // settled one), so after this the whole staged prefix is as
                // durable as the mode promises. `sync_wal` relies on this —
                // it only ever fsyncs the *current* segment.
                if let Some(old_wal) = ws.wal.as_mut() {
                    if self.opts.wal_sync {
                        old_wal.sync()?;
                        Metrics::bump(&self.metrics.wal_fsyncs);
                    } else {
                        old_wal.flush_os_buffer()?;
                    }
                }
                {
                    let mut d = self.durability.lock();
                    if ws.staged_seq > d.durable_seq {
                        d.durable_seq = ws.staged_seq;
                        self.durable_cv.notify_all();
                    }
                }
                ws.wal = Some(WalWriter::create(
                    wal_path(&self.dir, new_wal_no),
                    self.opts.wal_sync,
                )?);
                ws.wal_no = new_wal_no;
                // The old segment covers exactly the frozen data; delete it
                // only once that data is safely inside an SSTable.
                ws.pending_wals.push(old_wal_no);

                let mut frozen = Vec::with_capacity(snap.frozen.len() + 1);
                frozen.push(Arc::clone(&snap.active));
                frozen.extend(snap.frozen.iter().cloned());
                let next = Arc::new(Snapshot {
                    active: Arc::new(RwLock::new(MemTable::new())),
                    frozen,
                    tables: snap.tables.clone(),
                });
                self.publish(Arc::clone(&next));
                next
            }
        };

        // Phase 2 — build. Merge the frozen memtables (newest first, so the
        // merge's duplicate-suppression keeps the newest copy) into one run
        // of SSTables, one per column group. No engine lock is held: reads
        // and writes proceed freely.
        let mut run = RunWriter::new(self);
        {
            let guards: Vec<_> = build_snap.frozen.iter().map(|m| m.read()).collect();
            let sources: Vec<Box<dyn Iterator<Item = Cell> + '_>> =
                guards.iter().map(|g| Box::new(g.iter()) as _).collect();
            for cell in MergeIter::new(sources) {
                run.add(&cell)?;
            }
        }
        let (run, bytes) = run.finish()?;
        Metrics::bump(&self.metrics.flushes);
        Metrics::add(&self.metrics.bytes_flushed, bytes);

        // Phase 3 — publish the run, drop the frozen memtables, persist
        // the manifest, then delete the superseded WAL segments. A crash
        // before the deletes only costs a harmless re-replay of
        // already-flushed data.
        let cur = self.snapshot();
        let mut tables = run;
        tables.extend(cur.tables.iter().cloned());
        let next = Arc::new(Snapshot {
            active: Arc::clone(&cur.active),
            frozen: Vec::new(),
            tables,
        });
        let nos: Vec<u64> = next.tables.iter().rev().map(|t| t.id()).collect();
        let stale_wals: Vec<u64> = {
            let mut ws = self.write_state.lock();
            if ws.wal.is_none() {
                // Halted during the build: the directory belongs to the
                // engine recovery opened, which replayed (and removed) the
                // pending segments. Publish and delete nothing.
                return Err(engine_closed());
            }
            write_manifest(&self.dir, &nos, ws.next_file_no)?;
            self.publish(next);
            ws.pending_wals.drain(..).collect()
        };
        for no in stale_wals {
            std::fs::remove_file(wal_path(&self.dir, no))?;
        }
        Ok(true)
    }

    /// Major compaction: merge all SSTables into one run, garbage-collecting
    /// shadowed versions and expired tombstones (Figure 2c). The run has one
    /// table per non-empty column group, so this also splits tables written
    /// before the groups were set.
    ///
    /// Works entirely off a private clone of the table stack; concurrent
    /// reads and writes are never blocked.
    pub fn compact(&self) -> Result<()> {
        self.compact_locked(&mut self.maintenance.lock())
    }

    /// Compaction body; `runs` is the maintenance lock's run count.
    fn compact_locked(&self, runs: &mut usize) -> Result<()> {
        if self.write_state.lock().wal.is_none() {
            return Err(engine_closed()); // halted, as in `flush_locked`
        }
        // The maintenance lock keeps flushes out, so this is the whole stack
        // until the publish below.
        let tables: Vec<Arc<Table>> = self.snapshot().tables.clone();
        if tables.is_empty() {
            return Ok(());
        }
        let max_ts = tables.iter().map(|t| t.properties().max_ts).max().unwrap_or(0);
        let policy = GcPolicy {
            retain_after: max_ts.saturating_sub(self.opts.version_retention),
            drop_tombstones: true,
        };

        let failed = RefCell::new(None);
        let sources: Vec<Box<dyn Iterator<Item = Cell> + '_>> = tables
            .iter()
            .map(|t| Box::new(table_cells(t.iter_to_replace(), &failed)) as _)
            .collect();
        let mut gc = gc_merge(MergeIter::new(sources), policy);
        let mut run = RunWriter::new(self);
        let written = gc.by_ref().try_for_each(|cell| run.add(&cell));
        // An unreadable input block ended its table early: publishing the
        // output would drop those cells, and deleting the inputs would lose
        // them for good. Fail with the inputs untouched.
        if let Some(e) = failed.take().or(written.err()) {
            run.abandon();
            return Err(e);
        }
        let stats = gc.stats();
        Metrics::add(
            &self.metrics.gc_dropped_cells,
            stats.dropped_versions + stats.dropped_tombstones,
        );
        // Everything may have been garbage-collected: then no output table.
        let (run, bytes) = run.finish()?;
        Metrics::add(&self.metrics.bytes_compacted, bytes);
        Metrics::bump(&self.metrics.compactions);

        // Publish: replace the compacted inputs with the merged output.
        let cur = self.snapshot();
        let published_runs = usize::from(!run.is_empty());
        let next = Arc::new(Snapshot {
            active: Arc::clone(&cur.active),
            frozen: cur.frozen.clone(),
            tables: run,
        });
        let nos: Vec<u64> = next.tables.iter().rev().map(|t| t.id()).collect();
        {
            let ws = self.write_state.lock();
            if ws.wal.is_none() {
                // Halted during the merge: the engine recovery opened still
                // uses the inputs. Publish and delete nothing.
                return Err(engine_closed());
            }
            write_manifest(&self.dir, &nos, ws.next_file_no)?;
            self.publish(next);
        }
        *runs = published_runs;
        // Readers still holding the old snapshot keep the unlinked files
        // alive through their open descriptors.
        for t in &tables {
            let _ = std::fs::remove_file(t.path());
        }
        Ok(())
    }

    // -- introspection -------------------------------------------------------

    /// Number of on-disk tables.
    pub fn table_count(&self) -> usize {
        self.snapshot().tables.len()
    }

    /// Number of cells across the active and frozen memtables.
    pub fn memtable_cells(&self) -> usize {
        let snap = self.snapshot();
        let active = snap.active.read().len();
        let frozen: usize = snap.frozen.iter().map(|m| m.read().len()).sum();
        active + frozen
    }

    /// Largest timestamp stored anywhere in this tree (memtables or
    /// SSTables). Recovery uses it to advance the adopting server's clock
    /// past everything the previous owner wrote.
    pub fn max_timestamp(&self) -> Timestamp {
        let snap = self.snapshot();
        let mut max = snap.active.read().max_ts();
        for m in &snap.frozen {
            max = max.max(m.read().max_ts());
        }
        for t in &snap.tables {
            max = max.max(t.properties().max_ts);
        }
        max
    }

    /// Stop a shared engine as its server's crash would: records staged so
    /// far are handed to the OS, and every later write, WAL sync, flush and
    /// compaction fails with an "engine closed" error. A caller that still
    /// holds the engine (a write routed before the crash) thus cannot land
    /// a record after recovery has replayed the WAL into a new engine.
    pub fn halt(&self) {
        self.write_state.lock().wal = None;
    }

    /// Drop the engine as a crash would: the memtable vanishes, the WAL and
    /// SSTables stay. Reopen with [`LsmTree::open`] to recover.
    pub fn simulate_crash(self) {
        // Nothing to do: `Drop` performs no flush by design.
        drop(self);
    }
}

/// The error of a write, sync, flush or compaction on a halted engine
/// ([`LsmTree::halt`]).
fn engine_closed() -> LsmError {
    LsmError::InvalidOperation("engine closed".into())
}

// -- manifest ----------------------------------------------------------------

fn read_manifest(dir: &Path) -> Result<(Vec<u64>, u64)> {
    let path = dir.join("MANIFEST");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 1)),
        Err(e) => return Err(e.into()),
    };
    let mut tables = Vec::new();
    let mut next = 1u64;
    for line in text.lines() {
        if let Some(v) = line.strip_prefix("next=") {
            next = v
                .parse()
                .map_err(|_| LsmError::Corruption(format!("manifest: bad next {v:?}")))?;
        } else if let Some(v) = line.strip_prefix("table=") {
            tables.push(
                v.parse()
                    .map_err(|_| LsmError::Corruption(format!("manifest: bad table {v:?}")))?,
            );
        }
    }
    Ok((tables, next))
}

fn write_manifest(dir: &Path, table_nos_oldest_first: &[u64], next: u64) -> Result<()> {
    let tmp = dir.join("MANIFEST.tmp");
    let path = dir.join("MANIFEST");
    let mut text = format!("next={next}\n");
    for no in table_nos_oldest_first {
        text.push_str(&format!("table={no}\n"));
    }
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, &path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use tempdir_lite::TempDir;

    fn small_opts() -> LsmOptions {
        LsmOptions {
            memtable_flush_bytes: 1024,
            table: TableOptions { block_size: 256, bloom_bits_per_key: 10 },
            wal_sync: false,
            block_cache: Some(Arc::new(BlockCache::new(1 << 20))),
            compaction_trigger: 4,
            version_retention: 10,
        }
    }

    fn manual_opts() -> LsmOptions {
        LsmOptions { memtable_flush_bytes: usize::MAX, compaction_trigger: 0, ..small_opts() }
    }

    #[test]
    fn put_get_roundtrip() {
        let dir = TempDir::new("lsm").unwrap();
        let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
        db.put("k1", 10, "v1").unwrap();
        db.put("k2", 11, "v2").unwrap();
        assert_eq!(db.get_latest(b"k1").unwrap().unwrap().value, Bytes::from("v1"));
        assert_eq!(db.get_latest(b"k2").unwrap().unwrap().ts, 11);
        assert!(db.get_latest(b"k3").unwrap().is_none());
    }

    #[test]
    fn update_is_new_version_old_still_readable() {
        let dir = TempDir::new("lsm").unwrap();
        let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
        db.put("k", 10, "old").unwrap();
        db.put("k", 20, "new").unwrap();
        assert_eq!(db.get_latest(b"k").unwrap().unwrap().value, Bytes::from("new"));
        // The paper's RB(k, tnew − δ):
        let old = db.get(b"k", 19).unwrap().unwrap();
        assert_eq!(old.value, Bytes::from("old"));
        assert_eq!(old.ts, 10);
    }

    #[test]
    fn delete_writes_tombstone() {
        let dir = TempDir::new("lsm").unwrap();
        let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
        db.put("k", 10, "v").unwrap();
        db.delete("k", 20).unwrap();
        assert!(db.get_latest(b"k").unwrap().is_none());
        assert!(db.get(b"k", 15).unwrap().is_some(), "snapshot before delete sees value");
        let c = db.get_versioned(b"k", u64::MAX).unwrap().unwrap();
        assert!(c.is_tombstone());
    }

    #[test]
    fn get_spans_memtable_and_tables() {
        let dir = TempDir::new("lsm").unwrap();
        let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
        db.put("a", 1, "a1").unwrap();
        db.flush().unwrap();
        db.put("b", 2, "b2").unwrap();
        db.flush().unwrap();
        db.put("c", 3, "c3").unwrap();
        assert_eq!(db.table_count(), 2);
        for (k, v) in [("a", "a1"), ("b", "b2"), ("c", "c3")] {
            assert_eq!(db.get_latest(k.as_bytes()).unwrap().unwrap().value, Bytes::from(v));
        }
    }

    #[test]
    fn newest_version_wins_across_components() {
        let dir = TempDir::new("lsm").unwrap();
        let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
        db.put("k", 10, "in-table").unwrap();
        db.flush().unwrap();
        db.put("k", 20, "in-memtable").unwrap();
        assert_eq!(db.get_latest(b"k").unwrap().unwrap().value, Bytes::from("in-memtable"));

        // Put with an *older* explicit timestamp into the memtable: the
        // flushed version must still win.
        db.put("k", 5, "stale-write").unwrap();
        assert_eq!(db.get_latest(b"k").unwrap().unwrap().value, Bytes::from("in-memtable"));
    }

    #[test]
    fn scan_merges_components_and_respects_limit() {
        let dir = TempDir::new("lsm").unwrap();
        let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
        for i in 0..10 {
            db.put(format!("k{i}"), 10 + i, format!("v{i}")).unwrap();
            if i == 4 {
                db.flush().unwrap();
            }
        }
        let all = db.scan(b"k0", None, u64::MAX, usize::MAX).unwrap();
        assert_eq!(all.len(), 10);
        assert_eq!(all[0].0, Bytes::from("k0"));
        assert_eq!(all[9].0, Bytes::from("k9"));

        let bounded = db.scan(b"k3", Some(b"k7"), u64::MAX, usize::MAX).unwrap();
        assert_eq!(bounded.len(), 4);

        let limited = db.scan(b"k0", None, u64::MAX, 3).unwrap();
        assert_eq!(limited.len(), 3);
    }

    #[test]
    fn scan_hides_deleted_and_shadowed() {
        let dir = TempDir::new("lsm").unwrap();
        let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
        db.put("a", 10, "a-old").unwrap();
        db.put("b", 10, "b").unwrap();
        db.flush().unwrap();
        db.put("a", 20, "a-new").unwrap();
        db.delete("b", 20).unwrap();
        let rows = db.scan(b"", None, u64::MAX, usize::MAX).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1.value, Bytes::from("a-new"));

        // Snapshot scan at ts=15 sees the pre-update world.
        let rows = db.scan(b"", None, 15, usize::MAX).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].1.value, Bytes::from("a-old"));
    }

    #[test]
    fn memtable_flushes_on_threshold() {
        let dir = TempDir::new("lsm").unwrap();
        let db = LsmTree::open(dir.path(), LsmOptions { compaction_trigger: 0, ..small_opts() })
            .unwrap();
        for i in 0..100 {
            db.put(format!("key{i:04}"), i, vec![b'x'; 64]).unwrap();
        }
        assert!(db.table_count() >= 1, "threshold crossing must trigger flush");
        assert!(db.metrics().snapshot().flushes >= 1);
        for i in (0..100).step_by(17) {
            assert!(db.get_latest(format!("key{i:04}").as_bytes()).unwrap().is_some());
        }
    }

    #[test]
    fn compaction_trigger_keeps_table_count_bounded() {
        let dir = TempDir::new("lsm").unwrap();
        let db = LsmTree::open(dir.path(), small_opts()).unwrap();
        for i in 0..400 {
            db.put(format!("key{:04}", i % 50), 1000 + i, vec![b'x'; 64]).unwrap();
        }
        assert!(db.table_count() < 4 + 2, "compaction should bound table count");
        assert!(db.metrics().snapshot().compactions >= 1);
        // All 50 keys still readable with their newest values.
        for k in 0..50 {
            assert!(db.get_latest(format!("key{k:04}").as_bytes()).unwrap().is_some());
        }
    }

    #[test]
    fn compaction_gc_drops_old_versions_keeps_recent() {
        let dir = TempDir::new("lsm").unwrap();
        let db = LsmTree::open(dir.path(), manual_opts()).unwrap(); // retention = 10
        db.put("k", 100, "v100").unwrap();
        db.flush().unwrap();
        db.put("k", 200, "v200").unwrap();
        db.flush().unwrap();
        db.put("k", 205, "v205").unwrap();
        db.flush().unwrap();
        db.compact().unwrap();
        assert_eq!(db.table_count(), 1);
        // v205 newest, v200 within retention (205-10=195), v100 GC'd.
        assert_eq!(db.get_latest(b"k").unwrap().unwrap().value, Bytes::from("v205"));
        assert_eq!(db.get(b"k", 204).unwrap().unwrap().value, Bytes::from("v200"));
        assert!(db.get(b"k", 199).unwrap().is_none(), "pre-retention version was GC'd");
        assert!(db.metrics().snapshot().gc_dropped_cells >= 1);
    }

    #[test]
    fn compaction_reads_do_not_fill_the_block_cache() {
        let dir = TempDir::new("lsm").unwrap();
        let cache = Arc::new(BlockCache::new(1 << 20));
        let db = LsmTree::open(
            dir.path(),
            LsmOptions { block_cache: Some(Arc::clone(&cache)), ..manual_opts() },
        )
        .unwrap();
        for t in 0..3 {
            for i in 0..40 {
                db.put(format!("k{i:03}"), 10 + t, vec![b'x'; 64]).unwrap();
            }
            db.flush().unwrap();
        }
        let before = db.metrics().snapshot();
        db.compact().unwrap();
        assert_eq!(cache.resident_bytes(), 0, "the compacted inputs' blocks were cached");
        let after = db.metrics().snapshot();
        assert_eq!(after.block_cache_misses, before.block_cache_misses, "compaction counted misses");
        assert_eq!(after.block_cache_hits, before.block_cache_hits, "compaction counted hits");
        // Reads still fill it.
        db.get_latest(b"k000").unwrap().unwrap();
        assert!(cache.resident_bytes() > 0);
    }

    #[test]
    fn compaction_purges_tombstoned_keys_entirely() {
        let dir = TempDir::new("lsm").unwrap();
        let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
        db.put("dead", 100, "v").unwrap();
        db.flush().unwrap();
        db.delete("dead", 110).unwrap();
        db.put("alive", 200, "v").unwrap(); // pushes max_ts well past retention
        db.flush().unwrap();
        db.compact().unwrap();
        assert!(db.get_latest(b"dead").unwrap().is_none());
        assert_eq!(db.table_count(), 1);
        let rows = db.scan(b"", None, u64::MAX, usize::MAX).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, Bytes::from("alive"));
    }

    #[test]
    fn crash_recovery_replays_wal() {
        let dir = TempDir::new("lsm").unwrap();
        {
            let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
            db.put("durable", 10, "yes").unwrap();
            db.put("durable2", 11, "also").unwrap();
            db.simulate_crash();
        }
        let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
        assert_eq!(db.get_latest(b"durable").unwrap().unwrap().value, Bytes::from("yes"));
        assert_eq!(db.get_latest(b"durable2").unwrap().unwrap().ts, 11);
    }

    #[test]
    fn crash_recovery_after_flush_and_more_writes() {
        let dir = TempDir::new("lsm").unwrap();
        {
            let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
            db.put("flushed", 10, "on-disk").unwrap();
            db.flush().unwrap();
            db.put("unflushed", 20, "in-wal").unwrap();
            db.simulate_crash();
        }
        let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
        assert_eq!(db.get_latest(b"flushed").unwrap().unwrap().value, Bytes::from("on-disk"));
        assert_eq!(db.get_latest(b"unflushed").unwrap().unwrap().value, Bytes::from("in-wal"));
        assert_eq!(db.table_count(), 1);
    }

    #[test]
    fn double_crash_still_recovers() {
        let dir = TempDir::new("lsm").unwrap();
        {
            let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
            db.put("k", 10, "v").unwrap();
            db.simulate_crash();
        }
        {
            // Recover, write more, crash again before flushing.
            let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
            db.put("k2", 20, "v2").unwrap();
            db.simulate_crash();
        }
        let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
        assert!(db.get_latest(b"k").unwrap().is_some());
        assert!(db.get_latest(b"k2").unwrap().is_some());
    }

    /// Path and appended bytes of the tree's live WAL segment.
    fn live_wal(db: &LsmTree) -> (PathBuf, u64) {
        let ws = db.write_state.lock();
        let wal = ws.wal.as_ref().unwrap();
        (wal.path().to_path_buf(), wal.written_bytes())
    }

    #[test]
    fn halt_keeps_staged_records_and_fails_later_writes_and_flushes() {
        let dir = TempDir::new("lsm").unwrap();
        {
            let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
            db.put("staged", 10, "v").unwrap();
            db.halt();
            assert!(db.put("late", 11, "v").is_err());
            assert!(db.flush().is_err(), "a flush would write a new WAL and manifest");
            assert!(db.compact().is_err());
        }
        let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
        assert!(db.get_latest(b"staged").unwrap().is_some());
        assert!(db.get_latest(b"late").unwrap().is_none());
    }

    /// Install a groups hook that halts `db` once `armed` is set. Flush and
    /// compaction ask for the groups as their build starts, past the
    /// entry checks: a halt there lands between the build and the publish.
    fn halt_in_build(db: &Arc<LsmTree>, armed: &Arc<AtomicBool>) {
        let weak = Arc::downgrade(db);
        let armed = Arc::clone(armed);
        db.set_groups_hook(Box::new(move || {
            if armed.swap(false, Ordering::AcqRel) {
                weak.upgrade().unwrap().halt();
            }
            None
        }));
    }

    #[test]
    fn halt_during_a_flush_build_publishes_and_deletes_nothing() {
        let dir = TempDir::new("lsm").unwrap();
        let armed = Arc::new(AtomicBool::new(false));
        {
            let db = Arc::new(LsmTree::open(dir.path(), manual_opts()).unwrap());
            halt_in_build(&db, &armed);
            db.put("k", 10, "v").unwrap();
            let (flushed_wal, _) = live_wal(&db);
            armed.store(true, Ordering::Release);
            assert!(db.flush().is_err(), "a flush halted in its build fails");
            assert!(flushed_wal.exists(), "the flushed segment is not deleted");
        }
        let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
        assert_eq!(db.table_count(), 0, "the manifest was not rewritten");
        assert!(db.get_latest(b"k").unwrap().is_some(), "replayed from the kept segment");
    }

    #[test]
    fn halt_during_a_compaction_merge_publishes_and_deletes_nothing() {
        let dir = TempDir::new("lsm").unwrap();
        let armed = Arc::new(AtomicBool::new(false));
        let inputs: Vec<PathBuf> = {
            let db = Arc::new(LsmTree::open(dir.path(), manual_opts()).unwrap());
            halt_in_build(&db, &armed);
            db.put("a", 10, "v").unwrap();
            db.flush().unwrap();
            db.put("b", 11, "v").unwrap();
            db.flush().unwrap();
            let inputs = db.snapshot().tables.iter().map(|t| t.path().to_path_buf()).collect();
            armed.store(true, Ordering::Release);
            assert!(db.compact().is_err(), "a compaction halted in its merge fails");
            inputs
        };
        assert_eq!(inputs.len(), 2);
        assert!(inputs.iter().all(|p| p.exists()), "the inputs are not unlinked");
        let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
        assert_eq!(db.table_count(), 2, "the manifest was not rewritten");
        assert!(db.get_latest(b"a").unwrap().is_some());
        assert!(db.get_latest(b"b").unwrap().is_some());
    }

    #[test]
    fn clean_reopen_counts_no_torn_wal_tail() {
        let dir = TempDir::new("lsm").unwrap();
        {
            let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
            db.put("k", 10, "v").unwrap();
        }
        let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
        assert_eq!(db.metrics().snapshot().wal_torn_tails, 0, "a zero-filled tail is a clean end");
        assert!(db.get_latest(b"k").unwrap().is_some());
    }

    #[test]
    fn wal_segment_cut_mid_record_counts_one_torn_tail() {
        let dir = TempDir::new("lsm").unwrap();
        let (wal, end) = {
            let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
            db.put("kept", 10, "v").unwrap();
            db.put("cut", 11, "v").unwrap();
            let live = live_wal(&db);
            db.simulate_crash();
            live
        };
        std::fs::OpenOptions::new().write(true).open(&wal).unwrap().set_len(end - 3).unwrap();
        let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
        assert_eq!(db.metrics().snapshot().wal_torn_tails, 1);
        assert!(db.get_latest(b"kept").unwrap().is_some());
        assert!(db.get_latest(b"cut").unwrap().is_none(), "the torn record is discarded");
    }

    #[test]
    fn crash_reopen_of_zero_filled_segment_returns_exactly_the_synced_records() {
        const N: u64 = 300; // ~1 KiB each: the segment crosses a zero-fill step
        let dir = TempDir::new("lsm").unwrap();
        let opts = LsmOptions { wal_sync: true, ..manual_opts() };
        let (wal, end) = {
            let db = LsmTree::open(dir.path(), opts.clone()).unwrap();
            for i in 0..N {
                db.put(format!("k{i:04}"), i + 1, vec![i as u8; 1024]).unwrap();
            }
            let live = live_wal(&db);
            db.simulate_crash();
            live
        };
        let len = std::fs::metadata(&wal).unwrap().len();
        assert!(end > crate::wal::ZERO_FILL_STEP, "{end} B must cross a step");
        assert!(len > end, "the segment is zero-filled past its {end} record bytes");

        let db = LsmTree::open(dir.path(), opts).unwrap();
        assert_eq!(db.metrics().snapshot().wal_torn_tails, 0);
        assert_eq!(db.memtable_cells(), N as usize, "no cell beyond the synced ones");
        let rows = db.scan(b"", None, u64::MAX, usize::MAX).unwrap();
        assert_eq!(rows.len(), N as usize);
        for (i, (key, v)) in rows.iter().enumerate() {
            assert_eq!(key, &Bytes::from(format!("k{i:04}")));
            assert_eq!(v.ts, i as u64 + 1);
            assert_eq!(v.value, Bytes::from(vec![i as u8; 1024]));
        }
    }

    #[test]
    fn reopen_clean_shutdown_after_flush() {
        let dir = TempDir::new("lsm").unwrap();
        {
            let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
            for i in 0..20 {
                db.put(format!("k{i}"), i, format!("v{i}")).unwrap();
            }
            db.flush().unwrap();
        }
        let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
        for i in 0..20 {
            assert_eq!(
                db.get_latest(format!("k{i}").as_bytes()).unwrap().unwrap().value,
                Bytes::from(format!("v{i}"))
            );
        }
    }

    #[test]
    fn flush_hooks_run_in_order() {
        let dir = TempDir::new("lsm").unwrap();
        let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
        let log = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        let l1 = Arc::clone(&log);
        db.add_pre_flush_hook(Box::new(move || l1.lock().push("pre")));
        let l2 = Arc::clone(&log);
        db.add_post_flush_hook(Box::new(move || l2.lock().push("post")));
        db.put("k", 1, "v").unwrap();
        db.flush().unwrap();
        assert_eq!(*log.lock(), vec!["pre", "post"]);
    }

    #[test]
    fn empty_flush_is_noop_but_hooks_still_run() {
        let dir = TempDir::new("lsm").unwrap();
        let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
        let ran = Arc::new(Mutex::new(0));
        let r = Arc::clone(&ran);
        db.add_pre_flush_hook(Box::new(move || *r.lock() += 1));
        db.flush().unwrap();
        assert_eq!(db.table_count(), 0);
        assert_eq!(*ran.lock(), 1);
    }

    #[test]
    fn write_batch_is_atomic_in_wal() {
        let dir = TempDir::new("lsm").unwrap();
        {
            let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
            db.write_batch(&[
                Cell::put("row/c1", 10, "a"),
                Cell::put("row/c2", 10, "b"),
                Cell::put("row/c3", 10, "c"),
            ])
            .unwrap();
            db.simulate_crash();
        }
        let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
        for c in ["c1", "c2", "c3"] {
            assert!(db.get_latest(format!("row/{c}").as_bytes()).unwrap().is_some());
        }
    }

    #[test]
    fn metrics_count_operations() {
        let dir = TempDir::new("lsm").unwrap();
        let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
        db.put("k", 1, "v").unwrap();
        db.delete("k2", 2).unwrap();
        db.get_latest(b"k").unwrap();
        db.scan(b"", None, u64::MAX, 10).unwrap();
        let s = db.metrics().snapshot();
        assert_eq!(s.puts, 1);
        assert_eq!(s.deletes, 1);
        assert_eq!(s.gets, 1);
        assert_eq!(s.scans, 1);
        assert_eq!(s.wal_appends, 2);
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let dir = TempDir::new("lsm").unwrap();
        let db = Arc::new(
            LsmTree::open(dir.path(), small_opts()).unwrap(),
        );
        let writer = {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for i in 0..500u64 {
                    db.put(format!("key{:03}", i % 100), 1000 + i, format!("v{i}")).unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|r| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let k = format!("key{:03}", (i + r * 13) % 100);
                        let _ = db.get_latest(k.as_bytes()).unwrap();
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        // Every key eventually readable with some version.
        let rows = db.scan(b"", None, u64::MAX, usize::MAX).unwrap();
        assert_eq!(rows.len(), 100);
    }

    /// Reads issued from inside a pre-flush hook — i.e. while the flush path
    /// holds the maintenance lock — must succeed and see all data. With the
    /// old engine-wide lock this held only because hooks ran before the
    /// write lock was taken; with snapshots it is safe by construction.
    #[test]
    fn reads_from_inside_flush_hooks_see_data() {
        let dir = TempDir::new("lsm").unwrap();
        let db = Arc::new(LsmTree::open(dir.path(), manual_opts()).unwrap());
        db.put("hooked", 5, "value").unwrap();
        let seen = Arc::new(Mutex::new(None));
        let (db2, seen2) = (Arc::clone(&db), Arc::clone(&seen));
        db.add_pre_flush_hook(Box::new(move || {
            *seen2.lock() = Some(db2.get_latest(b"hooked").unwrap().is_some());
        }));
        db.flush().unwrap();
        assert_eq!(*seen.lock(), Some(true));
        assert_eq!(db.get_latest(b"hooked").unwrap().unwrap().value, Bytes::from("value"));
    }

    /// A flush moves data memtable → frozen → table across two snapshot
    /// swaps; afterwards the frozen list must be drained and every row
    /// visible exactly once.
    #[test]
    fn flush_preserves_single_visibility_of_rows() {
        let dir = TempDir::new("lsm").unwrap();
        let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
        for i in 0..50 {
            db.put(format!("k{i:02}"), 10, "v").unwrap();
        }
        db.flush().unwrap();
        assert_eq!(db.memtable_cells(), 0, "frozen list must drain after flush");
        let rows = db.scan(b"", None, u64::MAX, usize::MAX).unwrap();
        assert_eq!(rows.len(), 50);
    }

    /// `get_many` answers every key as a per-key `get_versioned` does, and
    /// as a model of the writes does, across the active memtable, a frozen
    /// one (as an in-flight flush leaves it) and three tables, with
    /// tombstones, reads below the newest version, and duplicate and absent
    /// keys; its counters move as the per-key path's do.
    #[test]
    fn get_many_matches_per_key_gets() {
        let dir = TempDir::new("lsm").unwrap();
        let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
        let key = |i: u64| Bytes::from(format!("k{i:02}"));
        let mut model: BTreeMap<Bytes, BTreeMap<Timestamp, Option<Bytes>>> = BTreeMap::new();
        let mut cells_at = |ts: Timestamp, put: fn(u64) -> bool, del: fn(u64) -> bool| {
            let mut cells = Vec::new();
            for i in 0..20 {
                let versions = model.entry(key(i)).or_default();
                if put(i) {
                    let value = Bytes::from(format!("v{i}@{ts}"));
                    versions.insert(ts, Some(value.clone()));
                    cells.push(Cell::put(key(i), ts, value));
                } else if del(i) {
                    versions.insert(ts, None);
                    cells.push(Cell::delete(key(i), ts));
                }
            }
            cells
        };
        db.write_batch(&cells_at(10, |_| true, |_| false)).unwrap();
        db.flush().unwrap();
        db.write_batch(&cells_at(20, |i| i % 3 == 0, |i| i % 3 == 1)).unwrap();
        db.flush().unwrap();
        db.write_batch(&cells_at(30, |i| i % 4 == 0, |_| false)).unwrap();
        db.flush().unwrap();
        let mut frozen = MemTable::new();
        for c in cells_at(40, |i| i % 5 == 0, |i| i % 7 == 3) {
            frozen.insert(c);
        }
        let snap = db.snapshot();
        db.publish(Arc::new(Snapshot {
            active: Arc::new(RwLock::new(MemTable::new())),
            frozen: vec![Arc::new(RwLock::new(frozen))],
            tables: snap.tables.clone(),
        }));
        db.write_batch(&cells_at(50, |i| i % 6 == 1, |i| i % 8 == 2)).unwrap();
        assert_eq!(db.snapshot().tables.len(), 3);

        let mut keys: Vec<Bytes> = (0..20).map(key).collect();
        keys.extend([key(3), key(0), key(3), key(99), Bytes::from("a"), Bytes::from("zz")]);
        for ts in [5, 10, 15, 20, 25, 35, 40, 45, 50, Timestamp::MAX] {
            let before = db.metrics().snapshot();
            let per_key: Vec<Option<Cell>> =
                keys.iter().map(|k| db.get_versioned(k, ts).unwrap()).collect();
            let mid = db.metrics().snapshot();
            let batch = db.get_many(&keys, ts).unwrap();
            let after = db.metrics().snapshot();
            assert_eq!(batch, per_key, "read at {ts}");
            for (k, cell) in keys.iter().zip(&batch) {
                let want = model.get(k).and_then(|v| v.range(..=ts).next_back());
                let got = cell.as_ref().map(|c| (c.key.ts, c.clone().into_visible()));
                let want =
                    want.map(|(&t, v)| (t, v.clone().map(|value| VersionedValue { value, ts: t })));
                assert_eq!(got, want, "{k:?} at {ts}");
            }
            let (one, many) = (mid - before, after - mid);
            assert_eq!(many.gets, keys.len() as u64);
            assert_eq!(
                (many.gets, many.tables_probed, many.tables_skipped),
                (one.gets, one.tables_probed, one.tables_skipped),
                "counters at {ts}"
            );
        }
    }

    #[test]
    fn batched_put_amortizes_wal_append_and_fsync() {
        let dir = TempDir::new("lsm").unwrap();
        let db = LsmTree::open(
            dir.path(),
            LsmOptions { wal_sync: true, ..manual_opts() },
        )
        .unwrap();
        let entries: Vec<(Bytes, Timestamp, Bytes)> = (0..64u64)
            .map(|i| (Bytes::from(format!("k{i:03}")), i + 1, Bytes::from("v")))
            .collect();
        db.put_batch(&entries).unwrap();
        let m = db.metrics().snapshot();
        assert_eq!(m.puts, 64);
        assert_eq!(m.wal_appends, 1, "a batch is one WAL record");
        assert_eq!(m.wal_fsyncs, 1, "a batch is one fsync");
        assert!(m.puts_per_fsync() >= 64.0, "puts_per_fsync = {}", m.puts_per_fsync());
        assert_eq!(db.get_latest(b"k063").unwrap().unwrap().ts, 64);
    }

    #[test]
    fn concurrent_durable_writers_share_fsyncs() {
        let dir = TempDir::new("lsm").unwrap();
        let db = LsmTree::open(
            dir.path(),
            LsmOptions { wal_sync: true, ..manual_opts() },
        )
        .unwrap();
        const THREADS: u64 = 8;
        const OPS: u64 = 50;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let db = &db;
                s.spawn(move || {
                    for i in 0..OPS {
                        db.put(format!("k{t}-{i}"), t * OPS + i + 1, "v").unwrap();
                    }
                });
            }
        });
        let m = db.metrics().snapshot();
        assert_eq!(m.wal_appends, THREADS * OPS);
        assert!(m.wal_fsyncs >= 1);
        // Group commit: while one leader fsyncs (~hundreds of µs) the other
        // seven writers stage and wait, so fsyncs must come out well below
        // one per append.
        assert!(
            m.wal_fsyncs < m.wal_appends,
            "expected shared fsyncs, got {} fsyncs for {} appends",
            m.wal_fsyncs,
            m.wal_appends
        );
        assert!(m.mean_group_commit() > 1.0, "mean group = {}", m.mean_group_commit());
        assert!(m.puts_per_fsync() > 1.0, "puts/fsync = {}", m.puts_per_fsync());
    }

    #[test]
    fn corrupt_block_fails_scan_and_compaction_keeps_inputs() {
        let dir = TempDir::new("lsm").unwrap();
        let db = LsmTree::open(dir.path(), manual_opts()).unwrap();
        for (prefix, ts) in [("a", 10), ("b", 30)] {
            for i in 0..10 {
                db.put(format!("{prefix}{i:02}"), ts + i, "v").unwrap();
            }
            db.flush().unwrap();
        }
        let mut ssts: Vec<PathBuf> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "sst"))
            .collect();
        ssts.sort();
        assert_eq!(ssts.len(), 2);
        // Flip one bit in the first data block of the older table.
        let mut bytes = std::fs::read(&ssts[0]).unwrap();
        bytes[0] ^= 0x01;
        std::fs::write(&ssts[0], &bytes).unwrap();

        assert!(matches!(db.get(b"a00", u64::MAX), Err(LsmError::Corruption(_))));
        assert!(
            matches!(db.scan(b"", None, u64::MAX, usize::MAX), Err(LsmError::Corruption(_))),
            "a scan must not silently skip the damaged table's rows"
        );
        assert!(matches!(db.compact(), Err(LsmError::Corruption(_))));
        for p in &ssts {
            assert!(p.exists(), "failed compaction deleted its input {}", p.display());
        }
        assert_eq!(db.table_count(), 2, "nothing published");
        assert!(matches!(db.get(b"a00", u64::MAX), Err(LsmError::Corruption(_))));
        assert_eq!(db.get(b"b00", u64::MAX).unwrap().unwrap().ts, 30);
    }
}

#[cfg(test)]
mod group_tests {
    use super::*;
    use tempdir_lite::TempDir;

    /// Rows of a wide filler cell and a small title cell, interleaved in
    /// key order like a row's columns: titles (`…/t`) are group 1, the rest
    /// group 0.
    fn title_groups() -> GroupsHook {
        Box::new(|| Some(Arc::new(|key: &[u8]| usize::from(key.ends_with(b"/t"))) as KeyGroups))
    }

    fn group_of(key: &[u8]) -> bool {
        key.ends_with(b"/t")
    }

    fn opts() -> LsmOptions {
        LsmOptions {
            memtable_flush_bytes: usize::MAX,
            table: TableOptions { block_size: 256, bloom_bits_per_key: 10 },
            block_cache: Some(Arc::new(BlockCache::new(1 << 20))),
            compaction_trigger: 0,
            version_retention: u64::MAX,
            ..LsmOptions::default()
        }
    }

    /// Every key of every table, grouped by table.
    fn keys_by_table(db: &LsmTree) -> Vec<Vec<Bytes>> {
        db.snapshot()
            .tables
            .iter()
            .map(|t| t.iter_from(None).map(|c| c.unwrap().key.user_key).collect())
            .collect()
    }

    fn put_rows(db: &LsmTree, rows: std::ops::Range<u64>, ts: Timestamp) {
        for i in rows {
            db.put(format!("r{i:04}/f"), ts, vec![b'x'; 100]).unwrap();
            db.put(format!("r{i:04}/t"), ts, format!("title{i}")).unwrap();
        }
    }

    #[test]
    fn a_flush_writes_one_table_per_non_empty_group() {
        let dir = TempDir::new("lsm-groups").unwrap();
        let db = LsmTree::open(dir.path(), opts()).unwrap();
        db.set_groups_hook(title_groups());
        put_rows(&db, 0..50, 10);
        db.flush().unwrap();
        let tables = keys_by_table(&db);
        assert_eq!(tables.len(), 2);
        for keys in &tables {
            assert!(keys.iter().all(|k| group_of(k) == group_of(&keys[0])), "mixed groups");
        }
        // Only group 0 has cells in the next flush: one table.
        db.put("r9999/f", 20, "x").unwrap();
        db.flush().unwrap();
        assert_eq!(db.table_count(), 3);
        assert_eq!(db.metrics().snapshot().flushes, 2);
    }

    #[test]
    fn a_cold_get_of_a_grouped_key_reads_only_its_groups_table() {
        let dir = TempDir::new("lsm-groups").unwrap();
        let db = LsmTree::open(dir.path(), LsmOptions { block_cache: None, ..opts() }).unwrap();
        db.set_groups_hook(title_groups());
        put_rows(&db, 0..200, 10);
        db.flush().unwrap();
        let snap = db.snapshot();
        let (titles, filler): (Vec<_>, Vec<_>) =
            snap.tables.iter().partition(|t| group_of(&t.properties().min_key));
        assert_eq!((titles.len(), filler.len()), (1, 1));
        let mut false_positives = 0;
        for i in 0..200 {
            let key = format!("r{i:04}/t");
            assert!(db.get_latest(key.as_bytes()).unwrap().is_some());
            false_positives += u64::from(!filler[0].definitely_absent(hash_pair(key.as_bytes())));
        }
        // The key ranges overlap, so only the bloom filter keeps the gets
        // out of the filler table: it is read exactly on a false positive.
        assert!(titles[0].block_reads() >= 200, "no cache: a block read per get");
        assert_eq!(filler[0].block_reads(), false_positives);
        assert!(false_positives <= 10, "{false_positives} bloom false positives in 200");
    }

    #[test]
    fn groups_leave_the_compaction_count_alone() {
        let compactions = |grouped: bool| {
            let dir = TempDir::new("lsm-groups").unwrap();
            let db = LsmTree::open(dir.path(), LsmOptions { compaction_trigger: 4, ..opts() })
                .unwrap();
            if grouped {
                db.set_groups_hook(title_groups());
            }
            for f in 0..13 {
                put_rows(&db, f * 10..f * 10 + 10, 10 + f);
                db.flush().unwrap();
            }
            let m = db.metrics().snapshot();
            (m.flushes, m.compactions, db.table_count())
        };
        assert_eq!(compactions(false), (13, 4, 1));
        assert_eq!(compactions(true), (13, 4, 2));
    }

    #[test]
    fn compaction_splits_tables_written_before_the_groups() {
        let dir = TempDir::new("lsm-groups").unwrap();
        let db = LsmTree::open(dir.path(), opts()).unwrap();
        put_rows(&db, 0..50, 10);
        db.flush().unwrap();
        assert_eq!(db.table_count(), 1, "ungrouped: one mixed table");
        db.set_groups_hook(title_groups());
        db.compact().unwrap();
        let tables = keys_by_table(&db);
        assert_eq!(tables.len(), 2);
        for keys in &tables {
            assert_eq!(keys.len(), 50);
            assert!(keys.iter().all(|k| group_of(k) == group_of(&keys[0])), "mixed groups");
        }
        // The split tables survive a reopen, grouped or not.
        drop(db);
        let db = LsmTree::open(dir.path(), opts()).unwrap();
        assert_eq!(db.scan(b"", None, u64::MAX, usize::MAX).unwrap().len(), 100);
        assert_eq!(db.get_latest(b"r0042/t").unwrap().unwrap().value, Bytes::from("title42"));
    }
}

#[cfg(test)]
mod cache_sharing_tests {
    use super::*;
    use tempdir_lite::TempDir;

    /// Regression test: two engines sharing one block cache must not serve
    /// each other's blocks. Their SSTable file numbers coincide (both start
    /// at 1), so cache keys must not be derived from file numbers.
    #[test]
    fn shared_cache_across_engines_does_not_collide() {
        let dir = TempDir::new("lsm-shared").unwrap();
        let cache = Arc::new(BlockCache::new(1 << 20));
        let opts = || LsmOptions {
            block_cache: Some(Arc::clone(&cache)),
            memtable_flush_bytes: usize::MAX,
            compaction_trigger: 0,
            ..LsmOptions::default()
        };
        let a = LsmTree::open(dir.path().join("a"), opts()).unwrap();
        let b = LsmTree::open(dir.path().join("b"), opts()).unwrap();
        for i in 0..50 {
            a.put(format!("key{i:02}"), 10, "from-a").unwrap();
            b.put(format!("key{i:02}"), 10, "from-b").unwrap();
        }
        a.flush().unwrap();
        b.flush().unwrap();
        // Warm the cache with A's blocks, then read B: values must be B's.
        for i in 0..50 {
            assert_eq!(
                a.get_latest(format!("key{i:02}").as_bytes()).unwrap().unwrap().value,
                bytes::Bytes::from("from-a")
            );
        }
        for i in 0..50 {
            assert_eq!(
                b.get_latest(format!("key{i:02}").as_bytes()).unwrap().unwrap().value,
                bytes::Bytes::from("from-b"),
                "engine B must never see engine A's cached blocks"
            );
        }
    }
}
