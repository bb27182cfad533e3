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
use crate::coproc::{ColumnValue, ReplayedOp, TableObserver};
use crate::encoding::{cell_key, decode_cell_key, escape_no_term, prefix_end, row_end, row_start};
use crate::error::{ClusterError, Result};
use crate::fanout::FanoutPool;
use crate::keyspace::{PartitionMap, RegionId, RegionSpec, ServerId};
use bytes::Bytes;
use diff_index_lsm::{
    Cell, CellKind, FaultPlan, FaultPoint, LsmOptions, LsmTree, MetricsSnapshot, VersionedValue,
};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// One whole row: its key plus the visible `(column, value)` cells, as
/// returned by the grouped row scans.
pub type RowGroup = (Bytes, Vec<(Bytes, VersionedValue)>);

/// The kind of region-level operation being dispatched. Every dispatch
/// through the routing choke point is tagged with one of these — each would
/// be a network RPC to a region server in the real deployment, so the
/// per-op counters measure RPC cost instead of asserting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegionOp {
    Put,
    Delete,
    RawPut,
    RawDelete,
    Get,
    GetRow,
    Scan,
}

#[derive(Default)]
struct DispatchCounters {
    puts: AtomicU64,
    deletes: AtomicU64,
    raw_puts: AtomicU64,
    raw_deletes: AtomicU64,
    gets: AtomicU64,
    get_rows: AtomicU64,
    scans: AtomicU64,
}

impl DispatchCounters {
    fn bump(&self, op: RegionOp) {
        let counter = match op {
            RegionOp::Put => &self.puts,
            RegionOp::Delete => &self.deletes,
            RegionOp::RawPut => &self.raw_puts,
            RegionOp::RawDelete => &self.raw_deletes,
            RegionOp::Get => &self.gets,
            RegionOp::GetRow => &self.get_rows,
            RegionOp::Scan => &self.scans,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> DispatchSnapshot {
        DispatchSnapshot {
            puts: self.puts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            raw_puts: self.raw_puts.load(Ordering::Relaxed),
            raw_deletes: self.raw_deletes.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            get_rows: self.get_rows.load(Ordering::Relaxed),
            scans: self.scans.load(Ordering::Relaxed),
        }
    }
}

/// Per-operation counts of region-level dispatches, derived from the real
/// routing path (not hand-maintained). Take a delta around an operation to
/// see its RPC decomposition — e.g. one sync-full update put shows as
/// 1 put + 1 get (the `RB(k, t−δ)` read-back) + 1 raw put + 1 raw delete,
/// matching Table 1's 3-RPC index-maintenance cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchSnapshot {
    /// Client puts (timestamped by the server, observers dispatched).
    pub puts: u64,
    /// Client deletes.
    pub deletes: u64,
    /// Index-maintenance puts at an explicit timestamp.
    pub raw_puts: u64,
    /// Index-maintenance deletes at an explicit timestamp.
    pub raw_deletes: u64,
    /// Point reads (versioned cell reads included).
    pub gets: u64,
    /// Whole-row reads.
    pub get_rows: u64,
    /// Per-region legs of grouped row scans.
    pub scans: u64,
}

impl DispatchSnapshot {
    /// All region-level operations.
    pub fn total(&self) -> u64 {
        self.puts
            + self.deletes
            + self.raw_puts
            + self.raw_deletes
            + self.gets
            + self.get_rows
            + self.scans
    }

    /// Region ops beyond the client's own base writes — as a delta around a
    /// write burst this is exactly the synchronous index-maintenance RPC
    /// count (read-backs + index raw puts/deletes).
    pub fn index_ops(&self) -> u64 {
        self.raw_puts + self.raw_deletes + self.gets + self.get_rows + self.scans
    }
}

impl std::ops::Sub for DispatchSnapshot {
    type Output = DispatchSnapshot;
    fn sub(self, rhs: DispatchSnapshot) -> DispatchSnapshot {
        DispatchSnapshot {
            puts: self.puts - rhs.puts,
            deletes: self.deletes - rhs.deletes,
            raw_puts: self.raw_puts - rhs.raw_puts,
            raw_deletes: self.raw_deletes - rhs.raw_deletes,
            gets: self.gets - rhs.gets,
            get_rows: self.get_rows - rhs.get_rows,
            scans: self.scans - rhs.scans,
        }
    }
}

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
    /// Region-level operations issued, counted per op kind at the dispatch
    /// path (every one of these would be a network call in the real
    /// deployment).
    dispatch: DispatchCounters,
    /// Observer registration tokens.
    next_observer_id: AtomicU64,
    /// Shared pool for parallel fan-out: observer dispatch across index
    /// specs, per-region stages of batched puts, and the SU2 ∥ SU3/SU4
    /// split inside sync index maintenance.
    fanout: FanoutPool,
    /// Chaos-testing fault surface, shared with every region engine and
    /// network server of this cluster; unarmed (and free) in production.
    faults: Arc<FaultPlan>,
    /// §5.3 recovery bookkeeping (how often, how much moved/replayed).
    recoveries: AtomicU64,
    regions_recovered: AtomicU64,
    replayed_ops: AtomicU64,
    /// Writes rejected by the epoch fence (zombie writes, stale clients).
    fenced_writes: AtomicU64,
}

/// Counters describing the master's §5.3 recovery activity — evidence the
/// self-healing path actually ran (and how much it moved).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Completed `recover()` invocations.
    pub recoveries: u64,
    /// Regions reassigned + reopened across all recoveries.
    pub regions_recovered: u64,
    /// Base operations restored from WALs and delivered to observers.
    pub replayed_ops: u64,
    /// Writes rejected with [`ClusterError::StaleEpoch`].
    pub fenced_writes: u64,
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
                dispatch: DispatchCounters::default(),
                next_observer_id: AtomicU64::new(1),
                fanout: FanoutPool::new_default(),
                faults: Arc::default(),
                recoveries: AtomicU64::new(0),
                regions_recovered: AtomicU64::new(0),
                replayed_ops: AtomicU64::new(0),
                fenced_writes: AtomicU64::new(0),
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
        let servers = self.alive_servers();
        if servers.is_empty() {
            return Err(ClusterError::Unavailable("no alive servers".into()));
        }
        let map = PartitionMap::even(num_regions.max(1), &servers);
        self.install_table(name, map)
    }

    /// Create a table with explicit split points. Splits must fall on row
    /// boundaries — pass values produced by
    /// [`crate::encoding::row_start`].
    pub fn create_table_with_splits(&self, name: &str, splits: &[Bytes]) -> Result<()> {
        let servers = self.alive_servers();
        if servers.is_empty() {
            return Err(ClusterError::Unavailable("no alive servers".into()));
        }
        let map = PartitionMap::from_splits(splits, &servers);
        self.install_table(name, map)
    }

    fn install_table(&self, name: &str, map: PartitionMap) -> Result<()> {
        let mut regions = HashMap::new();
        for (spec, _server) in map.regions() {
            let engine = self.open_region_engine(name, spec.id)?.0;
            regions.insert(
                spec.id,
                Arc::new(Region {
                    spec: spec.clone(),
                    engine,
                    write_lock: parking_lot::Mutex::new(()),
                }),
            );
        }
        let mut tables = self.inner.tables.write();
        tables.insert(name.to_string(), TableState { map, regions, observers: Vec::new() });
        Ok(())
    }

    fn open_region_engine(
        &self,
        table: &str,
        region: RegionId,
    ) -> Result<(Arc<LsmTree>, Vec<Cell>)> {
        let dir = self.inner.dir.join(table).join(format!("region-{region:04}"));
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
        let weak: Weak<Inner> = Arc::downgrade(&self.inner);
        let t = table.to_string();
        engine.add_pre_flush_hook(Box::new({
            let weak = weak.clone();
            let t = t.clone();
            move || {
                if let Some(inner) = weak.upgrade() {
                    let cluster = Cluster { inner };
                    for obs in cluster.observers_of(&t) {
                        obs.pre_flush(&cluster, &t);
                    }
                }
            }
        }));
        engine.add_post_flush_hook(Box::new(move || {
            if let Some(inner) = weak.upgrade() {
                let cluster = Cluster { inner };
                for obs in cluster.observers_of(&t) {
                    obs.post_flush(&cluster, &t);
                }
            }
        }));
        Ok((engine, replayed))
    }

    /// Attach a coprocessor-style observer to `table`, returning a token
    /// usable with [`Cluster::unregister_observer`].
    pub fn register_observer(&self, table: &str, obs: Arc<dyn TableObserver>) -> Result<u64> {
        let id = self.inner.next_observer_id.fetch_add(1, Ordering::Relaxed);
        let mut tables = self.inner.tables.write();
        let state =
            tables.get_mut(table).ok_or_else(|| ClusterError::NoSuchTable(table.into()))?;
        state.observers.push((id, obs));
        Ok(id)
    }

    /// Detach a previously registered observer (used by `DROP INDEX`).
    pub fn unregister_observer(&self, table: &str, token: u64) -> Result<()> {
        let mut tables = self.inner.tables.write();
        let state =
            tables.get_mut(table).ok_or_else(|| ClusterError::NoSuchTable(table.into()))?;
        state.observers.retain(|(id, _)| *id != token);
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

    // -- routing -------------------------------------------------------------

    fn alive_servers(&self) -> Vec<ServerId> {
        self.inner
            .servers
            .read()
            .iter()
            .filter(|(_, s)| s.alive)
            .map(|(&id, _)| id)
            .collect()
    }

    /// Route an encoded key to `(region, server clock)`, failing if the
    /// hosting server is down. `op` tags the dispatch counter this
    /// operation lands in.
    fn route(
        &self,
        table: &str,
        enc_key: &[u8],
        op: RegionOp,
    ) -> Result<(Arc<Region>, Arc<TimestampOracle>)> {
        let (region, server) = {
            let tables = self.inner.tables.read();
            let state =
                tables.get(table).ok_or_else(|| ClusterError::NoSuchTable(table.into()))?;
            let spec = state.map.locate(enc_key);
            let server = state.map.server_for(enc_key);
            let region = state
                .regions
                .get(&spec.id)
                .cloned()
                .ok_or(ClusterError::ServerDown(server))?;
            (region, server)
        };
        let clock = {
            let servers = self.inner.servers.read();
            let s = servers.get(&server).ok_or(ClusterError::ServerDown(server))?;
            if !s.alive {
                return Err(ClusterError::ServerDown(server));
            }
            Arc::clone(&s.clock)
        };
        self.inner.dispatch.bump(op);
        Ok((region, clock))
    }

    /// Regions (with engines) overlapping an encoded key range, in key order.
    fn regions_in_range(
        &self,
        table: &str,
        start: &[u8],
        end: Option<&[u8]>,
    ) -> Result<Vec<Arc<Region>>> {
        let tables = self.inner.tables.read();
        let state = tables.get(table).ok_or_else(|| ClusterError::NoSuchTable(table.into()))?;
        let mut out = Vec::new();
        for (spec, server) in state.map.regions_in_range(start, end) {
            let region =
                state.regions.get(&spec.id).cloned().ok_or(ClusterError::ServerDown(server))?;
            self.inner.dispatch.bump(RegionOp::Scan);
            out.push(region);
        }
        Ok(out)
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
        let (region, clock) = self.route(table, &row_start(row), RegionOp::Put)?;
        let (ts, staged) = {
            let _w = region.write_lock.lock();
            let ts = clock.next();
            let cells: Vec<Cell> = columns
                .iter()
                .map(|(col, val)| Cell::put(cell_key(row, col), ts, val.clone()))
                .collect();
            (ts, region.engine.stage_batch(&cells)?)
        };
        if let Some(handle) = staged {
            region.engine.complete(handle)?;
        }
        drop(region);
        if self.inner.faults.take(FaultPoint::CrashMidPut) {
            // Injected crash in the §5.3 window: the base write is durable
            // (staged + completed above) but the server dies before its
            // coprocessors maintain the index and before the client is
            // acked. Only WAL-replay recovery can repair the divergence.
            let owner = self.server_for_row(table, row)?;
            self.crash_server(owner);
            return Err(ClusterError::ServerDown(owner));
        }
        self.notify_put(table, row, columns, ts)?;
        Ok(ts)
    }

    /// Batched client put: rows are grouped by region, each region group is
    /// staged under **one** region-lock acquisition as **one** WAL record
    /// (with consecutive timestamps, preserving §4.3's apply-order =
    /// timestamp-order invariant), and region groups proceed in parallel on
    /// the fan-out pool. Observer dispatch (index maintenance) then fans
    /// out across rows. Returns the per-row timestamps, in input order.
    pub fn put_batch(&self, table: &str, rows: &[(Bytes, Vec<ColumnValue>)]) -> Result<Vec<u64>> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        // Route every row and group by region.
        type Group = (Arc<Region>, Arc<TimestampOracle>, Vec<usize>);
        let mut groups: BTreeMap<RegionId, Group> = BTreeMap::new();
        for (i, (row, _)) in rows.iter().enumerate() {
            let (region, clock) = self.route(table, &row_start(row), RegionOp::Put)?;
            groups
                .entry(region.spec.id)
                .or_insert_with(|| (region, clock, Vec::new()))
                .2
                .push(i);
        }
        // Stage each group: one lock acquisition, one WAL record, one
        // memtable apply per region — then one shared durability wait.
        let tasks: Vec<_> = groups
            .into_values()
            .map(|(region, clock, idxs)| {
                let group_rows: Vec<(Bytes, Vec<ColumnValue>)> =
                    idxs.iter().map(|&i| rows[i].clone()).collect();
                move || -> Result<(Vec<usize>, Vec<u64>)> {
                    let (tss, staged) = {
                        let _w = region.write_lock.lock();
                        let mut cells = Vec::new();
                        let mut tss = Vec::with_capacity(group_rows.len());
                        for (row, columns) in &group_rows {
                            let ts = clock.next();
                            tss.push(ts);
                            for (col, val) in columns {
                                cells.push(Cell::put(cell_key(row, col), ts, val.clone()));
                            }
                        }
                        (tss, region.engine.stage_batch(&cells)?)
                    };
                    if let Some(handle) = staged {
                        region.engine.complete(handle)?;
                    }
                    Ok((idxs, tss))
                }
            })
            .collect();
        let mut ts_out = vec![0u64; rows.len()];
        for staged in self.inner.fanout.run(tasks) {
            let (idxs, tss) = staged?;
            for (i, ts) in idxs.into_iter().zip(tss) {
                ts_out[i] = ts;
            }
        }
        // Index maintenance, fanned out across rows (each row's observers
        // fan out again across specs inside `notify_put`).
        let observers = self.observers_of(table);
        if !observers.is_empty() {
            let jobs: Vec<_> = rows
                .iter()
                .enumerate()
                .map(|(i, (row, columns))| {
                    let cluster = self.clone();
                    let table = table.to_string();
                    let row = row.clone();
                    let columns = columns.clone();
                    let observers = observers.clone();
                    let ts = ts_out[i];
                    move || -> Result<()> {
                        for obs in &observers {
                            obs.post_put(&cluster, &table, &row, &columns, ts)?;
                        }
                        Ok(())
                    }
                })
                .collect();
            for r in self.inner.fanout.run(jobs) {
                r?;
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
        let (region, clock) = self.route(table, &row_start(row), RegionOp::Put)?;
        let (ts, old_values, staged) = {
            let _w = region.write_lock.lock();
            let mut old_values = Vec::with_capacity(columns.len());
            for (col, _) in columns {
                let old = region.engine.get(&cell_key(row, col), u64::MAX)?;
                old_values.push((col.clone(), old));
            }
            let ts = clock.next();
            let cells: Vec<Cell> = columns
                .iter()
                .map(|(col, val)| Cell::put(cell_key(row, col), ts, val.clone()))
                .collect();
            let staged = region.engine.stage_batch(&cells)?;
            (ts, old_values, staged)
        };
        if let Some(handle) = staged {
            region.engine.complete(handle)?;
        }
        drop(region);
        self.notify_put(table, row, columns, ts)?;
        Ok(PutOutcome { ts, old_values })
    }

    /// Client delete of the named columns (tombstones with a server-assigned
    /// timestamp), then observer dispatch.
    pub fn delete(&self, table: &str, row: &[u8], columns: &[Bytes]) -> Result<u64> {
        let (region, clock) = self.route(table, &row_start(row), RegionOp::Delete)?;
        let (ts, staged) = {
            let _w = region.write_lock.lock();
            let ts = clock.next();
            let cells: Vec<Cell> =
                columns.iter().map(|col| Cell::delete(cell_key(row, col), ts)).collect();
            (ts, region.engine.stage_batch(&cells)?)
        };
        if let Some(handle) = staged {
            region.engine.complete(handle)?;
        }
        drop(region);
        let columns_owned = columns.to_vec();
        let row_owned = Bytes::copy_from_slice(row);
        self.notify_observers(table, move |obs, cluster, table| {
            obs.post_delete(cluster, table, &row_owned, &columns_owned, ts)
        })?;
        Ok(ts)
    }

    /// Dispatch `post_put` to every observer of `table`. One shared helper
    /// replaces the loops formerly copy-pasted into `put`, `put_returning`
    /// and `delete`.
    fn notify_put(&self, table: &str, row: &[u8], columns: &[ColumnValue], ts: u64) -> Result<()> {
        let row = Bytes::copy_from_slice(row);
        let columns = columns.to_vec();
        self.notify_observers(table, move |obs, cluster, table| {
            obs.post_put(cluster, table, &row, &columns, ts)
        })
    }

    /// Run one observer callback per observer of `table`. Multiple
    /// observers — one per index spec — run **in parallel** on the fan-out
    /// pool, since their index tables are independent; the first error (in
    /// observer-registration order) wins.
    fn notify_observers<F>(&self, table: &str, callback: F) -> Result<()>
    where
        F: Fn(&dyn TableObserver, &Cluster, &str) -> Result<()> + Send + Sync + 'static,
    {
        let observers = self.observers_of(table);
        match observers.len() {
            0 => Ok(()),
            1 => callback(observers[0].as_ref(), self, table),
            _ => {
                let callback = Arc::new(callback);
                let tasks: Vec<_> = observers
                    .into_iter()
                    .map(|obs| {
                        let callback = Arc::clone(&callback);
                        let cluster = self.clone();
                        let table = table.to_string();
                        move || callback(obs.as_ref(), &cluster, &table)
                    })
                    .collect();
                let results = self.inner.fanout.run(tasks);
                results.into_iter().find(|r| r.is_err()).unwrap_or(Ok(()))
            }
        }
    }

    /// Internal put with an explicit timestamp and NO observer dispatch.
    /// Index maintenance uses this: an index entry must carry the same
    /// timestamp as the base entry it is associated with (§4.3).
    pub fn raw_put(&self, table: &str, row: &[u8], columns: &[ColumnValue], ts: u64) -> Result<()> {
        let (region, _clock) = self.route(table, &row_start(row), RegionOp::RawPut)?;
        let cells: Vec<Cell> = columns
            .iter()
            .map(|(col, val)| Cell::put(cell_key(row, col), ts, val.clone()))
            .collect();
        region.engine.write_batch(&cells)?;
        Ok(())
    }

    /// Internal delete with an explicit timestamp and NO observer dispatch.
    pub fn raw_delete(&self, table: &str, row: &[u8], columns: &[Bytes], ts: u64) -> Result<()> {
        let (region, _clock) = self.route(table, &row_start(row), RegionOp::RawDelete)?;
        let cells: Vec<Cell> =
            columns.iter().map(|col| Cell::delete(cell_key(row, col), ts)).collect();
        region.engine.write_batch(&cells)?;
        Ok(())
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
        let (region, _clock) = self.route(table, &row_start(row), RegionOp::Get)?;
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
        let (region, _clock) = self.route(table, &row_start(row), RegionOp::Get)?;
        Ok(region
            .engine
            .get_versioned(&cell_key(row, column), ts)?
            .map(|c| (c.key.ts, c.key.kind == CellKind::Delete)))
    }

    /// Read all columns of one row at snapshot `ts`.
    pub fn get_row(&self, table: &str, row: &[u8], ts: u64) -> Result<Vec<(Bytes, VersionedValue)>> {
        let (region, _clock) = self.route(table, &row_start(row), RegionOp::GetRow)?;
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
        let tables = self.inner.tables.read();
        let state = tables.get(table).ok_or_else(|| ClusterError::NoSuchTable(table.into()))?;
        Ok(state.regions.values().map(|r| Arc::clone(&r.engine)).collect())
    }

    /// Kill a region server: its regions' memtables are lost (WAL and
    /// SSTables survive on durable storage) and requests routed to it fail
    /// with [`ClusterError::ServerDown`] until [`Cluster::recover`] runs.
    pub fn crash_server(&self, server: ServerId) {
        // Drop the engines hosted by the dead server, discarding memtables —
        // and capture the dying server's view of its ownership (region ids +
        // fencing epochs): the stale map a zombie would keep serving from.
        let mut stale_view: HashMap<String, Vec<(RegionId, u64)>> = HashMap::new();
        {
            let mut tables = self.inner.tables.write();
            for (name, state) in tables.iter_mut() {
                let victims: Vec<(RegionId, u64)> = state
                    .map
                    .entries()
                    .filter(|(_, s, _)| *s == server)
                    .map(|(r, _, epoch)| (r.id, epoch))
                    .collect();
                for (id, _) in &victims {
                    state.regions.remove(id);
                }
                if !victims.is_empty() {
                    stale_view.insert(name.clone(), victims);
                }
            }
        }
        let mut servers = self.inner.servers.write();
        if let Some(s) = servers.get_mut(&server) {
            s.alive = false;
            s.stale_view = stale_view;
        }
    }

    /// Bring a crashed server back into the pool (empty-handed: its former
    /// regions stay where recovery put them; the rebooted server receives
    /// regions again at the next `create_table` or reassignment).
    pub fn restart_server(&self, server: ServerId) {
        let mut servers = self.inner.servers.write();
        if let Some(s) = servers.get_mut(&server) {
            s.alive = true;
            s.clock = Arc::new(TimestampOracle::new());
        }
    }

    /// Master failover (ZooKeeper's role in Figure 3): reassign every region
    /// of every dead server to the survivors, reopen each from durable
    /// storage (replaying its WAL), and deliver every replayed base
    /// operation to the table's observers (`post_replay`) so Diff-Index can
    /// re-enqueue index work (§5.3).
    pub fn recover(&self) -> Result<()> {
        let dead: Vec<ServerId> = {
            let servers = self.inner.servers.read();
            servers.iter().filter(|(_, s)| !s.alive).map(|(&id, _)| id).collect()
        };
        let alive = self.alive_servers();
        if alive.is_empty() {
            return Err(ClusterError::Unavailable("no surviving servers".into()));
        }
        // Open the §5.3 recovery window: observers hold their AUQ workers so
        // queued tasks for dead regions stop burning retries; they resume —
        // now draining against the new owners — when the window closes.
        let hooked: Vec<(String, Vec<Arc<dyn TableObserver>>)> = {
            let tables = self.inner.tables.read();
            tables
                .iter()
                .map(|(name, state)| {
                    (name.clone(), state.observers.iter().map(|(_, o)| Arc::clone(o)).collect())
                })
                .collect()
        };
        for (table, observers) in &hooked {
            for obs in observers {
                obs.pre_recovery(self, table);
            }
        }
        let result = self.recover_inner(&dead, &alive);
        for (table, observers) in &hooked {
            for obs in observers {
                obs.post_recovery(self, table);
            }
        }
        result
    }

    fn recover_inner(&self, dead: &[ServerId], alive: &[ServerId]) -> Result<()> {
        // Collect the replay work while holding the write lock, dispatch
        // observers after releasing it (observers issue cluster ops).
        let mut replays: Vec<(String, Vec<ReplayedOp>)> = Vec::new();
        {
            let mut tables = self.inner.tables.write();
            for (name, state) in tables.iter_mut() {
                let mut moved: Vec<RegionId> = Vec::new();
                for &d in dead {
                    moved.extend(state.map.reassign(d, alive));
                }
                self.inner.regions_recovered.fetch_add(moved.len() as u64, Ordering::Relaxed);
                for id in moved {
                    let spec = state
                        .map
                        .regions()
                        .find(|(r, _)| r.id == id)
                        .map(|(r, _)| r.clone())
                        .expect("moved region exists");
                    let (engine, replayed) = self.open_region_engine(name, id)?;
                    // The dead server's clock may have run ahead of the
                    // adopting server's; advance the new owner past every
                    // recovered timestamp so post-recovery writes cannot be
                    // shadowed by pre-crash data (LSM newest-ts-wins).
                    let max_ts = engine.max_timestamp();
                    if let Some(owner) = state.map.server_of_region(id) {
                        let servers = self.inner.servers.read();
                        if let Some(srv) = servers.get(&owner) {
                            srv.clock.advance_past(max_ts);
                        }
                    }
                    state.regions.insert(
                        id,
                        Arc::new(Region { spec, engine, write_lock: parking_lot::Mutex::new(()) }),
                    );
                    let mut ops = Vec::with_capacity(replayed.len());
                    for cell in replayed {
                        let Some((row, column)) = decode_cell_key(&cell.key.user_key) else {
                            continue;
                        };
                        ops.push(match cell.key.kind {
                            CellKind::Put => ReplayedOp::Put {
                                row,
                                column,
                                value: cell.value,
                                ts: cell.key.ts,
                            },
                            CellKind::Delete => {
                                ReplayedOp::Delete { row, column, ts: cell.key.ts }
                            }
                        });
                    }
                    if !ops.is_empty() {
                        replays.push((name.clone(), ops));
                    }
                }
            }
        }
        for (table, ops) in replays {
            let observers = self.observers_of(&table);
            self.inner.replayed_ops.fetch_add(ops.len() as u64, Ordering::Relaxed);
            for op in &ops {
                for obs in &observers {
                    obs.post_replay(self, &table, op)?;
                }
            }
        }
        self.inner.recoveries.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    // -- introspection -----------------------------------------------------------

    /// Ids of currently alive servers.
    pub fn servers(&self) -> Vec<ServerId> {
        self.alive_servers()
    }

    /// Sum of engine metrics across all regions of `table` — the per-table
    /// `(Base Put, Base Read, …)` evidence for the paper's Table 2.
    pub fn table_metrics(&self, table: &str) -> Result<MetricsSnapshot> {
        let engines = self.engines_of(table)?;
        Ok(engines
            .iter()
            .map(|e| e.metrics().snapshot())
            .fold(MetricsSnapshot::default(), |a, b| a + b))
    }

    /// Total region-level operations issued (network-call proxy). Derived
    /// from the per-op dispatch counters — see [`Cluster::dispatch_metrics`]
    /// for the breakdown.
    pub fn rpc_count(&self) -> u64 {
        self.inner.dispatch.snapshot().total()
    }

    /// Per-operation region dispatch counts, measured at the routing choke
    /// point every operation passes through.
    pub fn dispatch_metrics(&self) -> DispatchSnapshot {
        self.inner.dispatch.snapshot()
    }

    /// A client-cacheable snapshot of `table`'s partition map: for each
    /// region in key order, its encoded start key, region id, the server
    /// currently hosting it, and the assignment's fencing epoch. This is
    /// what a remote client caches and routes by; it goes stale when the
    /// master reassigns regions, which the client discovers via
    /// [`ClusterError::NotServing`] or [`ClusterError::StaleEpoch`].
    pub fn partition_snapshot(
        &self,
        table: &str,
    ) -> Result<Vec<(Bytes, RegionId, ServerId, u64)>> {
        let tables = self.inner.tables.read();
        let state = tables.get(table).ok_or_else(|| ClusterError::NoSuchTable(table.into()))?;
        Ok(state
            .map
            .entries()
            .map(|(spec, server, epoch)| (spec.start.clone(), spec.id, server, epoch))
            .collect())
    }

    /// The server currently hosting `row` of `table` (same row-key encoding
    /// as the data path). Region servers use this to police ownership:
    /// requests arriving at the wrong server answer
    /// [`ClusterError::NotServing`] with the real owner.
    pub fn server_for_row(&self, table: &str, row: &[u8]) -> Result<ServerId> {
        let tables = self.inner.tables.read();
        let state = tables.get(table).ok_or_else(|| ClusterError::NoSuchTable(table.into()))?;
        Ok(state.map.server_for(&row_start(row)))
    }

    /// The current fencing epoch of the region hosting `row` of `table`.
    pub fn epoch_for_row(&self, table: &str, row: &[u8]) -> Result<u64> {
        let tables = self.inner.tables.read();
        let state = tables.get(table).ok_or_else(|| ClusterError::NoSuchTable(table.into()))?;
        Ok(state.map.epoch_for(&row_start(row)))
    }

    /// Fencing check for a write stamped with the epoch the sender believes
    /// the target region has. A stale stamp proves the sender's partition
    /// map predates a failover: the write is rejected with
    /// [`ClusterError::StaleEpoch`] carrying the current owner and epoch so
    /// the sender can refresh and re-route. Region servers call this for
    /// every row-addressed write arriving over the wire.
    pub fn check_write_epoch(&self, table: &str, row: &[u8], stamped: u64) -> Result<()> {
        let (owner, epoch) = {
            let tables = self.inner.tables.read();
            let state =
                tables.get(table).ok_or_else(|| ClusterError::NoSuchTable(table.into()))?;
            let enc = row_start(row);
            (state.map.server_for(&enc), state.map.epoch_for(&enc))
        };
        if stamped != epoch && !self.inner.faults.fencing_sabotaged() {
            self.inner.fenced_writes.fetch_add(1, Ordering::Relaxed);
            return Err(ClusterError::StaleEpoch { owner, epoch });
        }
        Ok(())
    }

    /// A write arriving at a **zombie** — server `server` was declared dead
    /// and its regions reassigned, but it is still reachable and still holds
    /// its crash-time view of the partition map. The zombie checks the
    /// fencing epoch recorded in its stale view against the region's current
    /// epoch and must reject the write with [`ClusterError::StaleEpoch`]:
    /// accepting it would ack a write into discarded state (split-brain,
    /// a lost acked write). With fencing sabotaged
    /// ([`FaultPlan::sabotage_fencing`]), the zombie acks the write *without
    /// applying it anywhere authoritative* — exactly the failure mode the
    /// chaos checkers must catch.
    pub fn zombie_put(
        &self,
        server: ServerId,
        table: &str,
        row: &[u8],
        _columns: &[ColumnValue],
    ) -> Result<u64> {
        let enc = row_start(row);
        let (region_id, owner, current_epoch) = {
            let tables = self.inner.tables.read();
            let state =
                tables.get(table).ok_or_else(|| ClusterError::NoSuchTable(table.into()))?;
            let spec = state.map.locate(&enc);
            (
                spec.id,
                state.map.server_for(&enc),
                state.map.epoch_for(&enc),
            )
        };
        let servers = self.inner.servers.read();
        let zombie =
            servers.get(&server).ok_or(ClusterError::ServerDown(server))?;
        let stale_epoch = zombie
            .stale_view
            .get(table)
            .and_then(|v| v.iter().find(|(id, _)| *id == region_id))
            .map(|(_, e)| *e);
        let Some(stale_epoch) = stale_epoch else {
            // The zombie never owned this row's region: even its own stale
            // map says "not mine".
            return Err(ClusterError::NotServing { owner });
        };
        if stale_epoch == current_epoch {
            // The region has not been reassigned yet (the master has not
            // declared this server dead): there is no new owner to protect,
            // and the crashed engine cannot serve — plain unavailability.
            return Err(ClusterError::ServerDown(server));
        }
        if !self.inner.faults.fencing_sabotaged() {
            self.inner.fenced_writes.fetch_add(1, Ordering::Relaxed);
            return Err(ClusterError::StaleEpoch { owner, epoch: current_epoch });
        }
        // SABOTAGED: the zombie acks with a timestamp from its own clock.
        // The write lands only in the zombie's doomed state (never visible
        // to the cluster), so this ack is a lie — a lost acked write.
        Ok(zombie.clock.next())
    }

    /// Liveness of one server (the in-process health probe).
    pub fn is_alive(&self, server: ServerId) -> bool {
        self.inner.servers.read().get(&server).map(|s| s.alive).unwrap_or(false)
    }

    /// Ids of every server the cluster was built with, alive or dead — the
    /// set a health monitor probes.
    pub fn all_server_ids(&self) -> Vec<ServerId> {
        self.inner.servers.read().keys().copied().collect()
    }

    /// §5.3 recovery + fencing counters.
    pub fn recovery_stats(&self) -> RecoveryStats {
        RecoveryStats {
            recoveries: self.inner.recoveries.load(Ordering::Relaxed),
            regions_recovered: self.inner.regions_recovered.load(Ordering::Relaxed),
            replayed_ops: self.inner.replayed_ops.load(Ordering::Relaxed),
            fenced_writes: self.inner.fenced_writes.load(Ordering::Relaxed),
        }
    }

    /// Number of regions of `table`.
    pub fn region_count(&self, table: &str) -> Result<usize> {
        let tables = self.inner.tables.read();
        let state = tables.get(table).ok_or_else(|| ClusterError::NoSuchTable(table.into()))?;
        Ok(state.map.len())
    }

    /// True if `table` exists.
    pub fn has_table(&self, table: &str) -> bool {
        self.inner.tables.read().contains_key(table)
    }

    /// The key-range specs of the currently open regions of `table`, in
    /// region-id order (diagnostics / tests).
    pub fn region_specs(&self, table: &str) -> Result<Vec<RegionSpec>> {
        let tables = self.inner.tables.read();
        let state = tables.get(table).ok_or_else(|| ClusterError::NoSuchTable(table.into()))?;
        let mut specs: Vec<RegionSpec> = state.regions.values().map(|r| r.spec.clone()).collect();
        specs.sort_by_key(|s| s.id);
        Ok(specs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diff_index_lsm::TableOptions;
    use parking_lot::Mutex;
    use tempdir_lite::TempDir;

    fn test_opts(num_servers: usize) -> ClusterOptions {
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

    fn cols(pairs: &[(&str, &str)]) -> Vec<ColumnValue> {
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
        assert_eq!(c.region_count("t").unwrap(), 6);
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

    struct RecordingObserver {
        puts: Mutex<Vec<(Vec<u8>, u64)>>,
        deletes: Mutex<Vec<Vec<u8>>>,
        replays: Mutex<Vec<ReplayedOp>>,
        flushes: Mutex<Vec<&'static str>>,
    }

    impl RecordingObserver {
        fn new() -> Arc<Self> {
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
    fn crash_makes_server_unavailable_then_recover_restores() {
        let dir = TempDir::new("cluster").unwrap();
        let c = Cluster::new(dir.path(), test_opts(2)).unwrap();
        c.create_table("t", 2).unwrap();
        // Find rows landing on each server's region.
        let mut row_on_s0 = None;
        let mut row_on_s1 = None;
        for i in 0..255u8 {
            let row = [i, b'x'];
            let tables = c.inner.tables.read();
            let server = tables.get("t").unwrap().map.server_for(&row_start(&row));
            drop(tables);
            if server == 0 && row_on_s0.is_none() {
                row_on_s0 = Some(row);
            }
            if server == 1 && row_on_s1.is_none() {
                row_on_s1 = Some(row);
            }
        }
        let (r0, r1) = (row_on_s0.unwrap(), row_on_s1.unwrap());
        c.put("t", &r0, &cols(&[("c", "on-s0")])).unwrap();
        c.put("t", &r1, &cols(&[("c", "on-s1")])).unwrap();

        c.crash_server(1);
        // Data on server 0 still readable; server 1 rows unavailable.
        assert!(c.get("t", &r0, b"c", u64::MAX).unwrap().is_some());
        assert!(matches!(c.get("t", &r1, b"c", u64::MAX), Err(ClusterError::ServerDown(1))));
        assert!(matches!(c.put("t", &r1, &cols(&[("c", "x")])), Err(ClusterError::ServerDown(1))));

        // Master recovery: region reassigned to server 0, WAL replayed.
        c.recover().unwrap();
        let got = c.get("t", &r1, b"c", u64::MAX).unwrap().unwrap();
        assert_eq!(got.value, Bytes::from("on-s1"), "unflushed data recovered from WAL");
        c.put("t", &r1, &cols(&[("c", "post-recovery")])).unwrap();
    }

    #[test]
    fn recovery_delivers_replayed_ops_to_observers() {
        let dir = TempDir::new("cluster").unwrap();
        let c = Cluster::new(dir.path(), test_opts(2)).unwrap();
        c.create_table("t", 2).unwrap();
        let obs = RecordingObserver::new();
        c.register_observer("t", obs.clone()).unwrap();

        // Write rows to both servers (some flushed, some not).
        let mut unflushed = Vec::new();
        for i in 0..20u8 {
            let row = [i.wrapping_mul(13), b'r', i];
            c.put("t", &row, &cols(&[("c", "v")])).unwrap();
            unflushed.push(row);
        }
        c.crash_server(0);
        c.recover().unwrap();
        let replays = obs.replays.lock();
        // Only ops whose region lived on server 0 are replayed; there must
        // be at least one, and every replay must be a Put with a sane ts.
        assert!(!replays.is_empty(), "server 0 held some regions with data");
        for op in replays.iter() {
            assert!(matches!(op, ReplayedOp::Put { .. }));
            assert!(op.ts() > 0);
        }
    }

    #[test]
    fn crash_loses_nothing_after_flush() {
        let dir = TempDir::new("cluster").unwrap();
        let c = Cluster::new(dir.path(), test_opts(2)).unwrap();
        c.create_table("t", 4).unwrap();
        for i in 0..30 {
            c.put("t", format!("row{i}").as_bytes(), &cols(&[("c", &format!("v{i}"))])).unwrap();
        }
        c.flush_table("t").unwrap();
        for i in 30..60 {
            c.put("t", format!("row{i}").as_bytes(), &cols(&[("c", &format!("v{i}"))])).unwrap();
        }
        c.crash_server(0);
        c.crash_server(1);
        // All servers dead: recovery must fail.
        assert!(c.recover().is_err());
        // Un-crash by creating a fresh cluster over the same dir.
        let c2 = Cluster::new(dir.path(), test_opts(2)).unwrap();
        c2.create_table("t", 4).unwrap();
        for i in 0..60 {
            let got = c2.get("t", format!("row{i}").as_bytes(), b"c", u64::MAX).unwrap().unwrap();
            assert_eq!(got.value, Bytes::from(format!("v{i}")));
        }
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
        assert!(c.rpc_count() >= 21);
    }

    #[test]
    fn dispatch_metrics_break_down_by_op() {
        let dir = TempDir::new("cluster").unwrap();
        let c = Cluster::new(dir.path(), test_opts(1)).unwrap();
        c.create_table("t", 2).unwrap();
        let before = c.dispatch_metrics();
        c.put("t", b"r", &cols(&[("c", "v")])).unwrap();
        c.raw_put("t", b"r2", &cols(&[("c", "v")]), 9).unwrap();
        c.get("t", b"r", b"c", u64::MAX).unwrap();
        c.get_row("t", b"r", u64::MAX).unwrap();
        c.delete("t", b"r", &[Bytes::from("c")]).unwrap();
        c.raw_delete("t", b"r2", &[Bytes::from("c")], 10).unwrap();
        c.scan_rows("t", b"", None, u64::MAX, 10).unwrap();
        let d = c.dispatch_metrics() - before;
        assert_eq!(
            (d.puts, d.raw_puts, d.gets, d.get_rows, d.deletes, d.raw_deletes, d.scans),
            (1, 1, 1, 1, 1, 1, 2),
            "one bump per dispatch; the scan fans out to both regions"
        );
        assert_eq!(d.total(), 8);
        assert_eq!(d.index_ops(), d.total() - d.puts - d.deletes);
        assert_eq!(c.rpc_count(), c.dispatch_metrics().total());
    }

    #[test]
    fn partition_snapshot_routes_like_the_data_path() {
        let dir = TempDir::new("cluster").unwrap();
        let c = Cluster::new(dir.path(), test_opts(2)).unwrap();
        c.create_table("t", 4).unwrap();
        let snap = c.partition_snapshot("t").unwrap();
        assert_eq!(snap.len(), 4);
        assert!(snap[0].0.is_empty(), "first region starts at the empty key");
        for w in snap.windows(2) {
            assert!(w[0].0 < w[1].0, "snapshot must be in key order");
        }
        // Client-side routing over the snapshot agrees with the server, and
        // the snapshot's epochs agree with the fencing authority.
        for row in [&b"a"[..], b"m", b"z", b"\xff\xff", b""] {
            let enc = row_start(row);
            let idx = snap.partition_point(|(start, _, _, _)| start.as_ref() <= enc.as_slice());
            let (_, _, client_owner, client_epoch) = snap[idx.saturating_sub(1)];
            assert_eq!(client_owner, c.server_for_row("t", row).unwrap());
            assert_eq!(client_epoch, c.epoch_for_row("t", row).unwrap());
        }
    }

    #[test]
    fn reassignment_bumps_epochs_and_fences_stale_writes() {
        let dir = TempDir::new("cluster").unwrap();
        let c = Cluster::new(dir.path(), test_opts(2)).unwrap();
        c.create_table("t", 4).unwrap();
        // Find a row hosted by server 1.
        let row = (0..=255u8)
            .map(|b| [b, b'x'])
            .find(|r| c.server_for_row("t", r).unwrap() == 1)
            .expect("some row lands on server 1");
        let old_epoch = c.epoch_for_row("t", &row).unwrap();
        c.check_write_epoch("t", &row, old_epoch).unwrap();
        c.crash_server(1);
        c.recover().unwrap();
        let new_epoch = c.epoch_for_row("t", &row).unwrap();
        assert_eq!(new_epoch, old_epoch + 1, "failover bumps the region epoch");
        // A write stamped under the old assignment is fenced.
        match c.check_write_epoch("t", &row, old_epoch) {
            Err(ClusterError::StaleEpoch { owner, epoch }) => {
                assert_eq!(owner, 0);
                assert_eq!(epoch, new_epoch);
            }
            other => panic!("expected StaleEpoch, got {other:?}"),
        }
        c.check_write_epoch("t", &row, new_epoch).unwrap();
        let stats = c.recovery_stats();
        assert_eq!(stats.recoveries, 1);
        assert!(stats.regions_recovered >= 1);
        assert!(stats.fenced_writes >= 1);
    }

    #[test]
    fn zombie_write_is_fenced_after_failover() {
        let dir = TempDir::new("cluster").unwrap();
        let c = Cluster::new(dir.path(), test_opts(2)).unwrap();
        c.create_table("t", 4).unwrap();
        let row = (0..=255u8)
            .map(|b| [b, b'z'])
            .find(|r| c.server_for_row("t", r).unwrap() == 1)
            .expect("some row lands on server 1");
        c.put("t", &row, &cols(&[("c", "before")])).unwrap();
        c.crash_server(1);
        // Before the master reassigns, the zombie's view matches the map:
        // the failure is plain unavailability, not a fencing violation.
        assert!(matches!(
            c.zombie_put(1, "t", &row, &cols(&[("c", "split")])),
            Err(ClusterError::ServerDown(1))
        ));
        c.recover().unwrap();
        // Resurrect the zombie (it rejoins empty-handed) and replay the
        // write it would have served from its stale view: fenced.
        c.restart_server(1);
        match c.zombie_put(1, "t", &row, &cols(&[("c", "split")])) {
            Err(ClusterError::StaleEpoch { owner, .. }) => assert_eq!(owner, 0),
            other => panic!("expected StaleEpoch, got {other:?}"),
        }
        // A row the zombie never owned answers NotServing from its own view.
        let other_row = (0..=255u8)
            .map(|b| [b, b'z'])
            .find(|r| {
                c.server_for_row("t", r).unwrap() == 0
                    && c.epoch_for_row("t", r).unwrap() == 1
            })
            .expect("some region never moved");
        assert!(matches!(
            c.zombie_put(1, "t", &other_row, &cols(&[("c", "x")])),
            Err(ClusterError::NotServing { owner: 0 })
        ));
        // The authoritative value is untouched.
        let got = c.get("t", &row, b"c", u64::MAX).unwrap().unwrap();
        assert_eq!(got.value, Bytes::from("before"));
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
