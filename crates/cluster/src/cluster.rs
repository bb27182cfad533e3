//! The in-process distributed store: region servers, routing, coprocessor
//! dispatch, crash injection and master-driven recovery.
//!
//! This substrate plays the role HBase + HDFS + ZooKeeper play in the paper
//! (Figure 3): a table is partitioned into regions, each region is an LSM
//! tree hosted by a region server, a client library routes by key using a
//! cached partition map, and on server failure the master reassigns regions
//! whose state is recovered from durable storage (our "HDFS" is the shared
//! base directory) by WAL replay.

use crate::clock::TimestampOracle;
use crate::coproc::{ColumnValue, TableObserver};
use crate::encoding::{
    cell_key, column_of, decode_cell_key, escape_no_term, prefix_end, row_end, row_start,
};
use crate::error::{ClusterError, Result};
use crate::fanout::FanoutPool;
use crate::keyspace::{PartitionMap, RegionId, RegionSpec, ServerId};
use bytes::Bytes;
use diff_index_lsm::{
    Cell, CellKind, FaultPlan, FaultPoint, FlushHook, KeyGroups, LsmOptions, LsmTree,
    MetricsSnapshot, VersionedValue,
};
use parking_lot::RwLock;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

mod master;
mod router;

use master::RecoveryCounters;
pub use master::RecoveryStats;
pub use router::DispatchSnapshot;
use router::Dispatches;

/// One whole row: its key plus the visible `(column, value)` cells, as
/// returned by the grouped row scans.
pub type RowGroup = (Bytes, Vec<(Bytes, VersionedValue)>);

/// Cluster construction options.
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Number of region servers.
    pub num_servers: usize,
    /// Template engine options applied to every region.
    pub lsm: LsmOptions,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        Self { num_servers: 1, lsm: LsmOptions::default() }
    }
}

/// The values a put replaced, per column, read just before it was staged.
type PreImages = Vec<(Bytes, Option<VersionedValue>)>;

/// What one write does to one row: put column values, or delete columns.
/// Borrowed on the write path; owned copies cross to the fan-out pool.
#[derive(Debug)]
pub enum Write<'a> {
    /// Put these `(column, value)` cells.
    Put(Cow<'a, [ColumnValue]>),
    /// Delete these columns (tombstones).
    Delete(Cow<'a, [Bytes]>),
}

/// The region groups of a [`Cluster::raw_write`] that did not land: for
/// each, the positions of its writes in the input, and the error that
/// failed it. Empty when every write landed.
pub type FailedGroups = Vec<(Vec<usize>, ClusterError)>;

impl Write<'_> {
    /// Append this write's cells for `row` at `ts` to `cells`.
    fn cells(&self, row: &[u8], ts: u64, cells: &mut Vec<Cell>) {
        match self {
            Write::Put(columns) => cells.extend(
                columns.iter().map(|(col, val)| Cell::put(cell_key(row, col), ts, val.clone())),
            ),
            Write::Delete(columns) => {
                cells.extend(columns.iter().map(|col| Cell::delete(cell_key(row, col), ts)))
            }
        }
    }

    /// Tell `obs` this write was applied to `row` at `ts`.
    fn notify(
        &self,
        obs: &dyn TableObserver,
        cluster: &Cluster,
        table: &str,
        row: &[u8],
        ts: u64,
    ) -> Result<()> {
        match self {
            Write::Put(columns) => obs.post_put(cluster, table, row, columns, ts),
            Write::Delete(columns) => obs.post_delete(cluster, table, row, columns, ts),
        }
    }

    fn to_static(&self) -> Write<'static> {
        match self {
            Write::Put(columns) => Write::Put(Cow::Owned(columns.to_vec())),
            Write::Delete(columns) => Write::Delete(Cow::Owned(columns.to_vec())),
        }
    }
}

struct Region {
    spec: RegionSpec,
    engine: Arc<LsmTree>,
    /// Serializes timestamp assignment + WAL/memtable *staging* for client
    /// writes, so visibility order equals timestamp order within a region —
    /// HBase provides the same guarantee via row locks + per-region MVCC
    /// (§4.3 "writes are sequenced in a region"). Without it, two
    /// concurrent same-row puts can apply out of timestamp order, and a
    /// coprocessor's `RB(k, tnew−δ)` could miss the older write entirely,
    /// leaking a stale index entry.
    ///
    /// The lock covers only the in-memory stage (`LsmTree::stage_batch`);
    /// the WAL-fsync wait (`LsmTree::complete`) runs *outside* it, so
    /// concurrent writers to one region share group commits instead of
    /// serializing on the disk, and writers to different regions never
    /// interact at all.
    write_lock: parking_lot::Mutex<()>,
}

impl Region {
    /// The one client-write path. Under the write lock: read each put's
    /// pre-images into `pre_images` when asked, take one timestamp per row
    /// into `ts`, and stage every row's cells as **one** WAL record and
    /// memtable apply. The durability wait runs after the lock is released.
    fn write(
        &self,
        clock: &TimestampOracle,
        rows: &[(&[u8], Write<'_>)],
        ts: &mut [u64],
        mut pre_images: Option<&mut PreImages>,
    ) -> Result<()> {
        let staged = {
            let _w = self.write_lock.lock();
            let mut cells = Vec::new();
            for ((row, write), ts) in rows.iter().zip(ts) {
                if let (Some(old), Write::Put(columns)) = (pre_images.as_deref_mut(), write) {
                    for (col, _) in columns.iter() {
                        old.push((col.clone(), self.engine.get(&cell_key(row, col), u64::MAX)?));
                    }
                }
                *ts = clock.next();
                write.cells(row, *ts, &mut cells);
            }
            self.engine.stage_batch(&cells)?
        };
        if let Some(handle) = staged {
            self.engine.complete(handle)?;
        }
        Ok(())
    }
}

struct TableState {
    map: PartitionMap,
    regions: HashMap<RegionId, Arc<Region>>,
    observers: Vec<(u64, Arc<dyn TableObserver>)>,
}

struct ServerState {
    clock: Arc<TimestampOracle>,
    alive: bool,
    /// The regions (and their fencing epochs) this server believed it owned
    /// at the moment it crashed — the stale view a "zombie" (declared dead
    /// but still reachable) would serve writes against. Populated by
    /// `crash_server`, consulted by `zombie_put` to prove the fence holds.
    stale_view: HashMap<String, Vec<(RegionId, u64)>>,
}

struct Inner {
    dir: PathBuf,
    opts: ClusterOptions,
    servers: RwLock<BTreeMap<ServerId, ServerState>>,
    tables: RwLock<HashMap<String, TableState>>,
    dispatch: Dispatches,
    /// Observer registration tokens.
    next_observer_id: AtomicU64,
    /// Shared pool for parallel fan-out: observer dispatch and the
    /// per-region stages of batched puts and raw writes, sync index
    /// maintenance's entry writes among them.
    fanout: FanoutPool,
    /// Chaos-testing fault surface, shared with every region engine and
    /// network server of this cluster; unarmed (and free) in production.
    faults: Arc<FaultPlan>,
    recovery: RecoveryCounters,
    /// Per table, the columns its region engines write to SSTables of
    /// their own (see [`Cluster::group_columns`]).
    column_groups: RwLock<HashMap<String, Arc<[Bytes]>>>,
}

/// Handle to the cluster; cheap to clone, shared with coprocessors.
#[derive(Clone)]
pub struct Cluster {
    inner: Arc<Inner>,
}

/// Non-owning cluster handle. Background services (e.g. Diff-Index's
/// asynchronous processing service) hold one of these so that the cluster —
/// which owns the observers, which own the services — is not kept alive by a
/// reference cycle.
#[derive(Clone)]
pub struct WeakCluster {
    inner: Weak<Inner>,
}

impl WeakCluster {
    /// Upgrade back to a usable handle, if the cluster is still alive.
    pub fn upgrade(&self) -> Option<Cluster> {
        self.inner.upgrade().map(|inner| Cluster { inner })
    }
}

impl std::fmt::Debug for WeakCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WeakCluster")
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("dir", &self.inner.dir)
            .field("servers", &self.inner.servers.read().len())
            .finish()
    }
}

/// Result of a `put_returning` call: the assigned timestamp plus, per
/// column, the value that was current immediately before the put. The
/// async-session client library uses this to build delete markers for stale
/// index entries (§5.2).
#[derive(Debug, Clone)]
pub struct PutOutcome {
    /// Server-assigned timestamp of the put.
    pub ts: u64,
    /// For each written column, the previous visible value (if any).
    pub old_values: Vec<(Bytes, Option<VersionedValue>)>,
}

impl Cluster {
    /// Create a cluster of `opts.num_servers` region servers persisting
    /// under `dir`.
    pub fn new(dir: impl Into<PathBuf>, opts: ClusterOptions) -> Result<Self> {
        assert!(opts.num_servers >= 1, "need at least one server");
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(diff_index_lsm::LsmError::from)?;
        let servers = (0..opts.num_servers as ServerId)
            .map(|id| {
                (
                    id,
                    ServerState {
                        clock: Arc::new(TimestampOracle::new()),
                        alive: true,
                        stale_view: HashMap::new(),
                    },
                )
            })
            .collect();
        Ok(Self {
            inner: Arc::new(Inner {
                dir,
                opts,
                servers: RwLock::new(servers),
                tables: RwLock::new(HashMap::new()),
                dispatch: Dispatches::default(),
                next_observer_id: AtomicU64::new(1),
                fanout: FanoutPool::new_default(),
                faults: Arc::default(),
                recovery: RecoveryCounters::default(),
                column_groups: RwLock::new(HashMap::new()),
            }),
        })
    }

    /// The cluster's shared fan-out pool. Coprocessors use it to run
    /// independent index sub-operations in parallel.
    pub fn fanout(&self) -> &FanoutPool {
        &self.inner.fanout
    }

    /// This cluster's fault-injection surface (chaos testing). Unarmed by
    /// default; see [`FaultPlan`].
    pub fn faults(&self) -> &FaultPlan {
        &self.inner.faults
    }

    /// A non-owning handle to this cluster.
    pub fn downgrade(&self) -> WeakCluster {
        WeakCluster { inner: Arc::downgrade(&self.inner) }
    }

    // -- DDL -----------------------------------------------------------------

    /// Create a table evenly pre-split into `num_regions` regions, assigned
    /// round-robin across the currently alive servers.
    pub fn create_table(&self, name: &str, num_regions: usize) -> Result<()> {
        let servers = self.servers();
        if servers.is_empty() {
            return Err(ClusterError::Unavailable("no alive servers".into()));
        }
        let map = PartitionMap::even(num_regions.max(1), &servers);
        let mut regions = HashMap::new();
        for (spec, _server) in map.regions() {
            regions.insert(spec.id, self.open_region(name, spec.clone())?.0);
        }
        let mut tables = self.inner.tables.write();
        tables.insert(name.to_string(), TableState { map, regions, observers: Vec::new() });
        Ok(())
    }

    /// Open (or reopen, replaying its WAL) the engine of region `spec` of
    /// `table`. Returns the region plus the cells its WAL replay restored.
    fn open_region(&self, table: &str, spec: RegionSpec) -> Result<(Arc<Region>, Vec<Cell>)> {
        let dir = self.inner.dir.join(table).join(format!("region-{:04}", spec.id));
        // Every engine — including ones reopened by recovery — shares the
        // cluster's fault plan, so armed WAL faults fire wherever the next
        // matching operation lands.
        let (engine, replayed) = LsmTree::open_with_replay(
            dir,
            self.inner.opts.lsm.clone(),
            Arc::clone(&self.inner.faults),
        )?;
        let engine = Arc::new(engine);
        // Wire engine flush events to table observers (drain-AUQ-before-flush).
        let hook = |event: fn(&dyn TableObserver, &Cluster, &str)| -> FlushHook {
            let (weak, t) = (Arc::downgrade(&self.inner), table.to_string());
            Box::new(move || {
                if let Some(inner) = weak.upgrade() {
                    let cluster = Cluster { inner };
                    for obs in cluster.observers_of(&t) {
                        event(obs.as_ref(), &cluster, &t);
                    }
                }
            })
        };
        engine.add_pre_flush_hook(hook(|obs, cluster, t| obs.pre_flush(cluster, t)));
        engine.add_post_flush_hook(hook(|obs, cluster, t| obs.post_flush(cluster, t)));
        // Each flush and compaction reads the table's grouped columns anew.
        let (weak, t) = (Arc::downgrade(&self.inner), table.to_string());
        engine.set_groups_hook(Box::new(move || {
            let grouped = Arc::clone(weak.upgrade()?.column_groups.read().get(&t)?);
            Some(Arc::new(move |key: &[u8]| {
                usize::from(column_of(key).is_some_and(|c| grouped.iter().any(|g| g[..] == *c)))
            }) as KeyGroups)
        }));
        let region = Region { spec, engine, write_lock: parking_lot::Mutex::new(()) };
        Ok((Arc::new(region), replayed))
    }

    /// Keep `columns` of `table` in a column group of their own. From the
    /// next flush or compaction on, every region engine of `table` writes
    /// their cells to separate SSTables, so a read of them shares blocks
    /// only with other grouped cells; tables already written are split at
    /// their next compaction. Calls add to one group. Diff-Index groups
    /// the indexed columns of each index, the columns its base checks read.
    pub fn group_columns(&self, table: &str, columns: &[Bytes]) {
        let mut groups = self.inner.column_groups.write();
        let grouped = groups.entry(table.to_string()).or_default();
        let mut all = grouped.to_vec();
        all.extend(columns.iter().filter(|c| !grouped.contains(c)).cloned());
        *grouped = all.into();
    }

    /// Attach a coprocessor-style observer to `table`, returning a token
    /// usable with [`Cluster::unregister_observer`].
    pub fn register_observer(&self, table: &str, obs: Arc<dyn TableObserver>) -> Result<u64> {
        let id = self.inner.next_observer_id.fetch_add(1, Ordering::Relaxed);
        self.edit_observers(table, |observers| observers.push((id, obs)))?;
        Ok(id)
    }

    /// Detach a previously registered observer (used by `DROP INDEX`).
    pub fn unregister_observer(&self, table: &str, token: u64) -> Result<()> {
        self.edit_observers(table, |observers| observers.retain(|(id, _)| *id != token))
    }

    fn edit_observers(
        &self,
        table: &str,
        edit: impl FnOnce(&mut Vec<(u64, Arc<dyn TableObserver>)>),
    ) -> Result<()> {
        let mut tables = self.inner.tables.write();
        let state =
            tables.get_mut(table).ok_or_else(|| ClusterError::NoSuchTable(table.into()))?;
        edit(&mut state.observers);
        Ok(())
    }

    fn observers_of(&self, table: &str) -> Vec<Arc<dyn TableObserver>> {
        self.inner
            .tables
            .read()
            .get(table)
            .map(|t| t.observers.iter().map(|(_, o)| Arc::clone(o)).collect())
            .unwrap_or_default()
    }

    // -- client writes --------------------------------------------------------

    /// Client put: write `columns` to `row` with a server-assigned
    /// timestamp, then run table observers (index maintenance). Returns the
    /// assigned timestamp.
    ///
    /// The region lock is held only while the write is *staged* (timestamp
    /// assignment + WAL buffer + memtable); the group-commit durability
    /// wait happens after release, so concurrent puts to one region share
    /// fsyncs.
    pub fn put(&self, table: &str, row: &[u8], columns: &[ColumnValue]) -> Result<u64> {
        let write = (row, Write::Put(columns.into()));
        let ts = self.write_row(table, &write, &self.inner.dispatch.puts, None)?;
        if self.inner.faults.take(FaultPoint::CrashMidPut) {
            // Injected crash in the §5.3 window: the base write is durable
            // (staged + completed above) but the server dies before its
            // coprocessors maintain the index and before the client is
            // acked. Only WAL-replay recovery can repair the divergence.
            let owner = self.server_for_row(table, row)?;
            self.crash_server(owner);
            return Err(ClusterError::ServerDown(owner));
        }
        self.notify(table, &write, ts)?;
        Ok(ts)
    }

    /// Batched client put: rows are grouped by region, each region group is
    /// staged under **one** region-lock acquisition as **one** WAL record
    /// (with consecutive timestamps, preserving §4.3's apply-order =
    /// timestamp-order invariant), and region groups proceed in parallel on
    /// the fan-out pool. Then each observer sees the whole batch in one
    /// [`TableObserver::post_put_batch`] call, so index maintenance can
    /// batch too. Returns the per-row timestamps, in input order.
    pub fn put_batch(&self, table: &str, rows: &[(Bytes, Vec<ColumnValue>)]) -> Result<Vec<u64>> {
        type Group = (Arc<Region>, Arc<TimestampOracle>, Vec<usize>);
        let mut groups: BTreeMap<RegionId, Group> = BTreeMap::new();
        for (i, (row, _)) in rows.iter().enumerate() {
            let (region, clock) = self.route(table, &row_start(row), &self.inner.dispatch.puts)?;
            groups.entry(region.spec.id).or_insert_with(|| (region, clock, Vec::new())).2.push(i);
        }
        let shared: Arc<[(Bytes, Vec<ColumnValue>)]> = rows.into();
        let tasks: Vec<_> = groups
            .into_values()
            .map(|(region, clock, idxs)| {
                let rows = Arc::clone(&shared);
                move || -> Result<(Vec<usize>, Vec<u64>)> {
                    let group: Vec<_> = idxs
                        .iter()
                        .map(|&i| (&rows[i].0[..], Write::Put((&rows[i].1).into())))
                        .collect();
                    let mut ts = vec![0; idxs.len()];
                    region.write(&clock, &group, &mut ts, None)?;
                    Ok((idxs, ts))
                }
            })
            .collect();
        let mut ts_out = vec![0u64; rows.len()];
        for staged in self.inner.fanout.run(tasks) {
            let (idxs, ts) = staged?;
            for (i, ts) in idxs.into_iter().zip(ts) {
                ts_out[i] = ts;
            }
        }
        match &self.observers_of(table)[..] {
            [] => {}
            [obs] => Arc::clone(obs).post_put_batch(self, table, rows, &ts_out)?,
            observers => {
                let ts = ts_out.clone();
                self.fan_out(table, observers, move |obs, cluster, table| {
                    Arc::clone(obs).post_put_batch(cluster, table, &shared, &ts)
                })?
            }
        }
        Ok(ts_out)
    }

    /// Like [`Cluster::put`] but also reads, *before* writing, the values the
    /// put replaces. Used by the session-consistency client library (§5.2).
    pub fn put_returning(
        &self,
        table: &str,
        row: &[u8],
        columns: &[ColumnValue],
    ) -> Result<PutOutcome> {
        let write = (row, Write::Put(columns.into()));
        let mut old_values = Vec::with_capacity(columns.len());
        let ts = self.write_row(table, &write, &self.inner.dispatch.puts, Some(&mut old_values))?;
        self.notify(table, &write, ts)?;
        Ok(PutOutcome { ts, old_values })
    }

    /// Client delete of the named columns (tombstones with a server-assigned
    /// timestamp), then observer dispatch.
    pub fn delete(&self, table: &str, row: &[u8], columns: &[Bytes]) -> Result<u64> {
        let write = (row, Write::Delete(columns.into()));
        let ts = self.write_row(table, &write, &self.inner.dispatch.deletes, None)?;
        self.notify(table, &write, ts)?;
        Ok(ts)
    }

    /// Route a one-row client write, counted in `op`, and stage it (see
    /// `Region::write`). Returns its timestamp.
    fn write_row(
        &self,
        table: &str,
        write: &(&[u8], Write<'_>),
        op: &AtomicU64,
        pre_images: Option<&mut PreImages>,
    ) -> Result<u64> {
        let (region, clock) = self.route(table, &row_start(write.0), op)?;
        let mut ts = [0];
        region.write(&clock, std::slice::from_ref(write), &mut ts, pre_images)?;
        Ok(ts[0])
    }

    /// Tell every observer of `table` that `write` was applied to its row
    /// at `ts`. A lone observer runs inline (the common put: no
    /// allocation); several run in parallel (see `fan_out`).
    fn notify(&self, table: &str, (row, write): &(&[u8], Write<'_>), ts: u64) -> Result<()> {
        match &self.observers_of(table)[..] {
            [] => Ok(()),
            [obs] => write.notify(obs.as_ref(), self, table, row, ts),
            observers => {
                let (row, write) = (Bytes::copy_from_slice(row), write.to_static());
                self.fan_out(table, observers, move |obs, cluster, table| {
                    write.notify(obs.as_ref(), cluster, table, &row, ts)
                })
            }
        }
    }

    /// Run `call` for each of `observers` as one fan-out task each: the
    /// observers of one table run in parallel, since their index tables are
    /// independent. The first error, in registration order, wins.
    fn fan_out(
        &self,
        table: &str,
        observers: &[Arc<dyn TableObserver>],
        call: impl Fn(&Arc<dyn TableObserver>, &Cluster, &str) -> Result<()>
            + Send
            + Sync
            + 'static,
    ) -> Result<()> {
        let call = Arc::new(call);
        let tasks: Vec<_> = observers
            .iter()
            .map(|obs| {
                let (obs, call, cluster) = (Arc::clone(obs), Arc::clone(&call), self.clone());
                let table = table.to_string();
                move || call(&obs, &cluster, &table)
            })
            .collect();
        self.inner.fanout.run(tasks).into_iter().collect()
    }

    /// Writes at explicit timestamps with NO observer dispatch: `writes[i]`
    /// is `(row, write, ts)`. Index maintenance uses this, since an index
    /// entry must carry the same timestamp as the base entry it is
    /// associated with (§4.3). Writes are grouped by region the way
    /// [`Cluster::put_batch`] groups rows: each region group is **one** WAL
    /// record and memtable apply, and the groups run in parallel on the
    /// fan-out pool. Each write counts as one `raw_puts` or `raw_deletes`
    /// dispatch. A group that fails fails alone; the rest still land.
    pub fn raw_write(&self, table: &str, writes: &[(&[u8], Write<'_>, u64)]) -> FailedGroups {
        /// A region, the input positions routed to it, and their cells.
        type Group = (Arc<Region>, Vec<usize>, Vec<Cell>);
        let mut failed = FailedGroups::new();
        let mut groups: BTreeMap<RegionId, Group> = BTreeMap::new();
        for (i, (row, write, ts)) in writes.iter().enumerate() {
            let op = match write {
                Write::Put(_) => &self.inner.dispatch.raw_puts,
                Write::Delete(_) => &self.inner.dispatch.raw_deletes,
            };
            match self.route(table, &row_start(row), op) {
                Ok((region, _clock)) => {
                    let id = region.spec.id;
                    let (_, idxs, cells) =
                        groups.entry(id).or_insert_with(|| (region, Vec::new(), Vec::new()));
                    idxs.push(i);
                    write.cells(row, *ts, cells);
                }
                Err(e) => failed.push((vec![i], e)),
            }
        }
        let (idxs, tasks): (Vec<_>, Vec<_>) = groups
            .into_values()
            .map(|(region, idxs, cells)| (idxs, move || region.engine.write_batch(&cells)))
            .unzip();
        for (idxs, written) in idxs.into_iter().zip(self.inner.fanout.run(tasks)) {
            if let Err(e) = written {
                failed.push((idxs, e.into()));
            }
        }
        failed
    }

    /// [`Cluster::raw_write`] of one put.
    pub fn raw_put(&self, table: &str, row: &[u8], columns: &[ColumnValue], ts: u64) -> Result<()> {
        self.raw_write_one(table, (row, Write::Put(columns.into()), ts))
    }

    /// [`Cluster::raw_write`] of one delete.
    pub fn raw_delete(&self, table: &str, row: &[u8], columns: &[Bytes], ts: u64) -> Result<()> {
        self.raw_write_one(table, (row, Write::Delete(columns.into()), ts))
    }

    fn raw_write_one(&self, table: &str, write: (&[u8], Write<'_>, u64)) -> Result<()> {
        match self.raw_write(table, &[write]).pop() {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }

    // -- client reads ----------------------------------------------------------

    /// Read one column of one row at snapshot `ts` (`u64::MAX` = latest).
    pub fn get(
        &self,
        table: &str,
        row: &[u8],
        column: &[u8],
        ts: u64,
    ) -> Result<Option<VersionedValue>> {
        let (region, _clock) = self.route(table, &row_start(row), &self.inner.dispatch.gets)?;
        Ok(region.engine.get(&cell_key(row, column), ts)?)
    }

    /// Raw versioned read: the newest cell (tombstones included) for one
    /// column of one row. Returns `(timestamp, is_tombstone)`. Used by
    /// administrative tools (e.g. Diff-Index's index cleanser) that must
    /// out-time stray tombstones.
    pub fn get_cell_versioned(
        &self,
        table: &str,
        row: &[u8],
        column: &[u8],
        ts: u64,
    ) -> Result<Option<(u64, bool)>> {
        let (region, _clock) = self.route(table, &row_start(row), &self.inner.dispatch.gets)?;
        Ok(region
            .engine
            .get_versioned(&cell_key(row, column), ts)?
            .map(|c| (c.key.ts, c.key.kind == CellKind::Delete)))
    }

    /// Read all columns of one row at snapshot `ts`.
    pub fn get_row(&self, table: &str, row: &[u8], ts: u64) -> Result<Vec<(Bytes, VersionedValue)>> {
        let (region, _clock) = self.route(table, &row_start(row), &self.inner.dispatch.get_rows)?;
        let cells = region.engine.scan(&row_start(row), Some(&row_end(row)), ts, usize::MAX)?;
        let mut out = Vec::with_capacity(cells.len());
        for (key, val) in cells {
            let (_row, col) = decode_cell_key(&key)
                .ok_or_else(|| diff_index_lsm::LsmError::Corruption("bad cell key".into()))?;
            out.push((Bytes::from(col), val));
        }
        Ok(out)
    }

    /// Scan whole rows in `[start_row, end_row)` at snapshot `ts`, up to
    /// `limit` rows. Fans out to every region overlapping the range, in key
    /// order.
    pub fn scan_rows(
        &self,
        table: &str,
        start_row: &[u8],
        end_row: Option<&[u8]>,
        ts: u64,
        limit: usize,
    ) -> Result<Vec<RowGroup>> {
        let start = row_start(start_row);
        let end = end_row.map(row_start);
        self.scan_grouped(table, &start, end.as_deref(), ts, limit)
    }

    /// Scan whole rows whose **row key** starts with `row_prefix`.
    /// Diff-Index reads its key-only index tables this way: the index row
    /// key is `value ⊕ base-row-key`, so "all index entries for value v" is
    /// exactly a prefix scan (§4).
    pub fn scan_rows_prefix(
        &self,
        table: &str,
        row_prefix: &[u8],
        ts: u64,
        limit: usize,
    ) -> Result<Vec<RowGroup>> {
        let start = escape_no_term(row_prefix);
        let end = prefix_end(&start);
        self.scan_grouped(table, &start, end.as_deref(), ts, limit)
    }

    /// Scan whole rows whose row key is in `[start_row, end_row)` under
    /// plain byte-string order — unlike [`Cluster::scan_rows`], a row key
    /// that *extends* `start_row` is included and one extending `end_row`
    /// is excluded. Diff-Index range queries use this with encoded value
    /// bounds (its index row keys are `value ⊕ rowkey` concatenations).
    pub fn scan_rows_range(
        &self,
        table: &str,
        start_row: &[u8],
        end_row: Option<&[u8]>,
        ts: u64,
        limit: usize,
    ) -> Result<Vec<RowGroup>> {
        let start = escape_no_term(start_row);
        let end = end_row.map(escape_no_term);
        self.scan_grouped(table, &start, end.as_deref(), ts, limit)
    }

    fn scan_grouped(
        &self,
        table: &str,
        start: &[u8],
        end: Option<&[u8]>,
        ts: u64,
        limit: usize,
    ) -> Result<Vec<RowGroup>> {
        let regions = self.regions_in_range(table, start, end)?;
        let mut rows: Vec<RowGroup> = Vec::new();
        'regions: for region in regions {
            let cells = region.engine.scan(start, end, ts, usize::MAX)?;
            for (key, val) in cells {
                let (row, col) = decode_cell_key(&key)
                    .ok_or_else(|| diff_index_lsm::LsmError::Corruption("bad cell key".into()))?;
                let row = Bytes::from(row);
                match rows.last_mut() {
                    Some((r, cols)) if *r == row => cols.push((Bytes::from(col), val)),
                    _ => {
                        if rows.len() >= limit {
                            break 'regions;
                        }
                        rows.push((row, vec![(Bytes::from(col), val)]));
                    }
                }
            }
        }
        rows.truncate(limit);
        Ok(rows)
    }

    // -- maintenance / failure injection ---------------------------------------

    /// Flush every region of `table`.
    pub fn flush_table(&self, table: &str) -> Result<()> {
        for engine in self.engines_of(table)? {
            engine.flush()?;
        }
        Ok(())
    }

    /// Major-compact every region of `table`.
    pub fn compact_table(&self, table: &str) -> Result<()> {
        for engine in self.engines_of(table)? {
            engine.compact()?;
        }
        Ok(())
    }

    /// Flush every region of every table.
    pub fn flush_all(&self) -> Result<()> {
        let names: Vec<String> = self.inner.tables.read().keys().cloned().collect();
        for n in names {
            self.flush_table(&n)?;
        }
        Ok(())
    }

    fn engines_of(&self, table: &str) -> Result<Vec<Arc<LsmTree>>> {
        self.with_table(table, |state| {
            Ok(state.regions.values().map(|r| Arc::clone(&r.engine)).collect())
        })
    }

    // -- introspection -----------------------------------------------------------

    /// Sum of engine metrics across all regions of `table` — the per-table
    /// `(Base Put, Base Read, …)` evidence for the paper's Table 2.
    pub fn table_metrics(&self, table: &str) -> Result<MetricsSnapshot> {
        let engines = self.engines_of(table)?;
        Ok(engines
            .iter()
            .map(|e| e.metrics().snapshot())
            .fold(MetricsSnapshot::default(), |a, b| a + b))
    }

    /// True if `table` exists.
    pub fn has_table(&self, table: &str) -> bool {
        self.inner.tables.read().contains_key(table)
    }

    /// The key-range specs of the currently open regions of `table`, in
    /// region-id order (diagnostics / tests).
    pub fn region_specs(&self, table: &str) -> Result<Vec<RegionSpec>> {
        let mut specs = self.with_table(table, |state| {
            Ok(state.regions.values().map(|r| r.spec.clone()).collect::<Vec<_>>())
        })?;
        specs.sort_by_key(|s| s.id);
        Ok(specs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coproc::ReplayedOp;
    use diff_index_lsm::TableOptions;
    use parking_lot::Mutex;
    use tempdir_lite::TempDir;

    pub(super) fn test_opts(num_servers: usize) -> ClusterOptions {
        ClusterOptions {
            num_servers,
            lsm: LsmOptions {
                memtable_flush_bytes: 8 * 1024,
                table: TableOptions { block_size: 512, bloom_bits_per_key: 10 },
                compaction_trigger: 4,
                version_retention: u64::MAX, // keep all versions in tests
                ..LsmOptions::default()
            },
        }
    }

    pub(super) fn cols(pairs: &[(&str, &str)]) -> Vec<ColumnValue> {
        pairs
            .iter()
            .map(|(c, v)| (Bytes::copy_from_slice(c.as_bytes()), Bytes::copy_from_slice(v.as_bytes())))
            .collect()
    }

    #[test]
    fn put_get_roundtrip_multi_region() {
        let dir = TempDir::new("cluster").unwrap();
        let c = Cluster::new(dir.path(), test_opts(3)).unwrap();
        c.create_table("t", 6).unwrap();
        assert_eq!(c.partition_snapshot("t").unwrap().len(), 6);
        for i in 0..50 {
            let row = format!("row{i:03}");
            c.put("t", row.as_bytes(), &cols(&[("name", &format!("val{i}"))])).unwrap();
        }
        for i in 0..50 {
            let row = format!("row{i:03}");
            let got = c.get("t", row.as_bytes(), b"name", u64::MAX).unwrap().unwrap();
            assert_eq!(got.value, Bytes::from(format!("val{i}")));
        }
        assert!(c.get("t", b"missing", b"name", u64::MAX).unwrap().is_none());
    }

    #[test]
    fn timestamps_are_assigned_and_monotonic_per_row() {
        let dir = TempDir::new("cluster").unwrap();
        let c = Cluster::new(dir.path(), test_opts(1)).unwrap();
        c.create_table("t", 1).unwrap();
        let t1 = c.put("t", b"r", &cols(&[("c", "v1")])).unwrap();
        let t2 = c.put("t", b"r", &cols(&[("c", "v2")])).unwrap();
        assert!(t2 > t1);
        // Snapshot read before the second put sees v1 (the paper's RB(k, t-delta)).
        let old = c.get("t", b"r", b"c", t2 - 1).unwrap().unwrap();
        assert_eq!(old.value, Bytes::from("v1"));
        assert_eq!(old.ts, t1);
    }

    #[test]
    fn get_row_returns_all_columns() {
        let dir = TempDir::new("cluster").unwrap();
        let c = Cluster::new(dir.path(), test_opts(1)).unwrap();
        c.create_table("t", 1).unwrap();
        c.put("t", b"r", &cols(&[("a", "1"), ("b", "2"), ("c", "3")])).unwrap();
        let row = c.get_row("t", b"r", u64::MAX).unwrap();
        assert_eq!(row.len(), 3);
        let names: Vec<&[u8]> = row.iter().map(|(c, _)| c.as_ref()).collect();
        assert_eq!(names, vec![b"a".as_ref(), b"b".as_ref(), b"c".as_ref()]);
    }

    #[test]
    fn delete_hides_column() {
        let dir = TempDir::new("cluster").unwrap();
        let c = Cluster::new(dir.path(), test_opts(1)).unwrap();
        c.create_table("t", 1).unwrap();
        c.put("t", b"r", &cols(&[("a", "1"), ("b", "2")])).unwrap();
        c.delete("t", b"r", &[Bytes::from("a")]).unwrap();
        assert!(c.get("t", b"r", b"a", u64::MAX).unwrap().is_none());
        assert!(c.get("t", b"r", b"b", u64::MAX).unwrap().is_some());
        assert_eq!(c.get_row("t", b"r", u64::MAX).unwrap().len(), 1);
    }

    #[test]
    fn scan_rows_across_regions_in_order() {
        let dir = TempDir::new("cluster").unwrap();
        let c = Cluster::new(dir.path(), test_opts(4)).unwrap();
        c.create_table("t", 8).unwrap();
        // Rows with first bytes spread over the whole byte space.
        let mut expected = Vec::new();
        for i in 0..64u32 {
            let row = format!("{}key{i:03}", char::from((i * 4) as u8 % 250 + 1));
            c.put("t", row.as_bytes(), &cols(&[("c", "v")])).unwrap();
            expected.push(row);
        }
        expected.sort();
        let rows = c.scan_rows("t", b"", None, u64::MAX, usize::MAX).unwrap();
        let got: Vec<String> =
            rows.iter().map(|(r, _)| String::from_utf8(r.to_vec()).unwrap()).collect();
        assert_eq!(got, expected);

        let limited = c.scan_rows("t", b"", None, u64::MAX, 10).unwrap();
        assert_eq!(limited.len(), 10);
    }

    #[test]
    fn scan_rows_prefix_selects_prefix_only() {
        let dir = TempDir::new("cluster").unwrap();
        let c = Cluster::new(dir.path(), test_opts(2)).unwrap();
        c.create_table("t", 4).unwrap();
        for r in ["apple1", "apple2", "apricot", "banana"] {
            c.put("t", r.as_bytes(), &cols(&[("c", "v")])).unwrap();
        }
        let rows = c.scan_rows_prefix("t", b"apple", u64::MAX, usize::MAX).unwrap();
        assert_eq!(rows.len(), 2);
        let rows = c.scan_rows_prefix("t", b"ap", u64::MAX, usize::MAX).unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn raw_put_uses_explicit_timestamp_without_observers() {
        let dir = TempDir::new("cluster").unwrap();
        let c = Cluster::new(dir.path(), test_opts(1)).unwrap();
        c.create_table("t", 1).unwrap();
        c.raw_put("t", b"r", &cols(&[("c", "v")]), 777).unwrap();
        let got = c.get("t", b"r", b"c", u64::MAX).unwrap().unwrap();
        assert_eq!(got.ts, 777);
    }

    #[test]
    fn put_returning_reports_old_values() {
        let dir = TempDir::new("cluster").unwrap();
        let c = Cluster::new(dir.path(), test_opts(1)).unwrap();
        c.create_table("t", 1).unwrap();
        let o1 = c.put_returning("t", b"r", &cols(&[("c", "v1")])).unwrap();
        assert!(o1.old_values[0].1.is_none());
        let o2 = c.put_returning("t", b"r", &cols(&[("c", "v2")])).unwrap();
        assert_eq!(o2.old_values[0].1.as_ref().unwrap().value, Bytes::from("v1"));
        assert!(o2.ts > o1.ts);
    }

    pub(super) struct RecordingObserver {
        puts: Mutex<Vec<(Vec<u8>, u64)>>,
        deletes: Mutex<Vec<Vec<u8>>>,
        pub(super) replays: Mutex<Vec<ReplayedOp>>,
        flushes: Mutex<Vec<&'static str>>,
    }

    impl RecordingObserver {
        pub(super) fn new() -> Arc<Self> {
            Arc::new(Self {
                puts: Mutex::new(Vec::new()),
                deletes: Mutex::new(Vec::new()),
                replays: Mutex::new(Vec::new()),
                flushes: Mutex::new(Vec::new()),
            })
        }
    }

    impl TableObserver for RecordingObserver {
        fn post_put(
            &self,
            _cluster: &Cluster,
            _table: &str,
            row: &[u8],
            _columns: &[ColumnValue],
            ts: u64,
        ) -> Result<()> {
            self.puts.lock().push((row.to_vec(), ts));
            Ok(())
        }

        fn post_delete(
            &self,
            _cluster: &Cluster,
            _table: &str,
            row: &[u8],
            _columns: &[Bytes],
            _ts: u64,
        ) -> Result<()> {
            self.deletes.lock().push(row.to_vec());
            Ok(())
        }

        fn pre_flush(&self, _cluster: &Cluster, _table: &str) {
            self.flushes.lock().push("pre");
        }

        fn post_flush(&self, _cluster: &Cluster, _table: &str) {
            self.flushes.lock().push("post");
        }

        fn post_replay(&self, _cluster: &Cluster, _table: &str, op: &ReplayedOp) -> Result<()> {
            self.replays.lock().push(op.clone());
            Ok(())
        }
    }

    #[test]
    fn observers_see_puts_deletes_and_flushes() {
        let dir = TempDir::new("cluster").unwrap();
        let c = Cluster::new(dir.path(), test_opts(1)).unwrap();
        c.create_table("t", 1).unwrap();
        let obs = RecordingObserver::new();
        c.register_observer("t", obs.clone()).unwrap();
        let ts = c.put("t", b"r1", &cols(&[("c", "v")])).unwrap();
        c.delete("t", b"r1", &[Bytes::from("c")]).unwrap();
        c.raw_put("t", b"r2", &cols(&[("c", "v")]), 5).unwrap(); // no dispatch
        c.flush_table("t").unwrap();
        assert_eq!(*obs.puts.lock(), vec![(b"r1".to_vec(), ts)]);
        assert_eq!(*obs.deletes.lock(), vec![b"r1".to_vec()]);
        assert_eq!(*obs.flushes.lock(), vec!["pre", "post"]);
    }

    #[test]
    fn table_metrics_aggregate_regions() {
        let dir = TempDir::new("cluster").unwrap();
        let c = Cluster::new(dir.path(), test_opts(2)).unwrap();
        c.create_table("t", 4).unwrap();
        for i in 0..20 {
            c.put("t", format!("r{i}").as_bytes(), &cols(&[("c", "v")])).unwrap();
        }
        c.get("t", b"r0", b"c", u64::MAX).unwrap();
        let m = c.table_metrics("t").unwrap();
        assert_eq!(m.puts, 20);
        assert_eq!(m.gets, 1);
        assert!(c.dispatch_metrics().total() >= 21);
    }

    #[test]
    fn missing_table_errors() {
        let dir = TempDir::new("cluster").unwrap();
        let c = Cluster::new(dir.path(), test_opts(1)).unwrap();
        assert!(matches!(
            c.put("nope", b"r", &cols(&[("c", "v")])),
            Err(ClusterError::NoSuchTable(_))
        ));
        assert!(matches!(c.get("nope", b"r", b"c", 0), Err(ClusterError::NoSuchTable(_))));
        assert!(!c.has_table("nope"));
    }

    #[test]
    fn concurrent_clients_multi_server() {
        let dir = TempDir::new("cluster").unwrap();
        let c = Cluster::new(dir.path(), test_opts(4)).unwrap();
        c.create_table("t", 8).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        let row = format!("{}row{w}-{i}", char::from((i * 7 % 200 + 30) as u8));
                        c.put("t", row.as_bytes(), &cols(&[("c", "v")])).unwrap();
                        let _ = c.get("t", row.as_bytes(), b"c", u64::MAX).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let rows = c.scan_rows("t", b"", None, u64::MAX, usize::MAX).unwrap();
        assert_eq!(rows.len(), 400);
    }
}
