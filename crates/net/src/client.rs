//! The remote store client: routes requests to region servers over TCP,
//! caches the partition map, and retries transparently — the paper's
//! "client library" (§2.2) as a [`Store`] implementation, so observers,
//! AUQ read-repair, sessions and the YCSB driver run unmodified against it.
//!
//! ## Routing
//!
//! The client bootstraps a **roster** (`server id -> address`) from any
//! reachable server, then lazily fetches and caches a **partition map** per
//! table. Row-addressed requests are routed by binary search over region
//! start keys — the same `partition_point` rule the servers use — so a
//! fresh map always routes exactly like the server-side data path.
//!
//! ## Failure handling
//!
//! A request is retried (bounded attempts, exponential backoff) only when
//! its error [`is retryable`](ClusterError::is_retryable):
//!
//! * [`ClusterError::NotServing`] — the cached map is stale (a region
//!   moved); invalidate it, refetch, re-route.
//! * [`ClusterError::ServerDown`] — the region's host crashed; invalidate
//!   and re-route (the master may have reassigned).
//! * [`ClusterError::StaleEpoch`] — the write carried an epoch from before
//!   a failover; the cached map (and its epochs) is stale. Invalidate,
//!   refetch, re-stamp, re-send — this is what makes failover transparent
//!   to callers while zombies stay fenced out.
//! * [`ClusterError::Timeout`] / [`ClusterError::Io`] — the outcome of the
//!   attempt is *unknown*: the connection is discarded (never reused, so a
//!   straggler response can't be mismatched) and the request re-sent. This
//!   is safe because every Diff-Index client operation is idempotent:
//!   re-executing a put converges to the same base and index state (§4.3 —
//!   the index entry key depends only on value and row, and SU3 skips the
//!   delete when old == new value).
//!
//! Semantic rejections (`NoSuchTable`, `Protocol`, …) are never retried.

use crate::wire::{
    self, BodyReader, BodyWriter, OpCode, STATUS_ERR, STATUS_OK,
};
use bytes::Bytes;
use diff_index_cluster::encoding::row_start;
use diff_index_cluster::{ClusterError, ColumnValue, PutOutcome, Result, RowGroup, ServerId};
use diff_index_core::{IndexSpec, Store};
use diff_index_lsm::VersionedValue;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasher;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Per-request deadline (connect, send, receive).
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);
/// Deadline for index administration requests (`CREATE INDEX` backfills;
/// `Quiesce` blocks until AUQs drain), which legitimately run long.
const ADMIN_TIMEOUT: Duration = Duration::from_secs(60);
/// Total attempts per request (first try included).
const MAX_ATTEMPTS: u32 = 4;
/// Base backoff between attempts; doubles per retry, capped at 100 ms.
/// The actual sleep is jittered (half fixed, half uniform-random) so a
/// cohort of clients retrying after one failover event spreads out
/// instead of stampeding the new owner in lockstep.
const BACKOFF: Duration = Duration::from_millis(2);
/// Idle pooled connections kept per server address.
const POOL_PER_ADDR: usize = 4;

/// A cached table partition map: `(region start key, owner, epoch)` sorted
/// by start key. The epoch stamps every write routed through the entry;
/// servers fence stamps from before a failover with
/// [`ClusterError::StaleEpoch`].
type TableMap = Arc<Vec<(Bytes, ServerId, u64)>>;

struct ClientInner {
    bootstrap: Vec<String>,
    /// `server id -> address`, refreshed from the servers' shared roster.
    roster: Mutex<BTreeMap<ServerId, String>>,
    /// Cached per-table partition maps: `(region start key, owner)` sorted
    /// by start key. Invalidated wholesale on `NotServing`/`ServerDown`.
    maps: Mutex<HashMap<String, TableMap>>,
    /// Idle pooled connections per address. A connection is pooled only
    /// after a fully successful exchange.
    pool: Mutex<HashMap<String, Vec<TcpStream>>>,
    next_id: AtomicU64,
}

/// A [`Store`] backed by region servers reached over TCP. Cheap to clone;
/// clones share the connection pool and routing caches.
#[derive(Clone)]
pub struct RemoteClient {
    inner: Arc<ClientInner>,
}

impl std::fmt::Debug for RemoteClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteClient").field("bootstrap", &self.inner.bootstrap).finish()
    }
}

impl RemoteClient {
    /// Connect to a cluster through one or more bootstrap addresses and
    /// fetch the initial roster.
    pub fn connect_default(bootstrap: Vec<String>) -> Result<RemoteClient> {
        assert!(!bootstrap.is_empty(), "need at least one bootstrap address");
        let client = RemoteClient {
            inner: Arc::new(ClientInner {
                bootstrap,
                roster: Mutex::new(BTreeMap::new()),
                maps: Mutex::new(HashMap::new()),
                pool: Mutex::new(HashMap::new()),
                next_id: AtomicU64::new(1),
            }),
        };
        client.refresh_roster()?;
        Ok(client)
    }

    // -- transport -----------------------------------------------------------

    fn checkout(&self, addr: &str) -> Result<TcpStream> {
        if let Some(conn) = self.inner.pool.lock().get_mut(addr).and_then(Vec::pop) {
            return Ok(conn);
        }
        let sa = addr
            .parse::<std::net::SocketAddr>()
            .map_err(|e| ClusterError::Io(format!("bad address {addr}: {e}")))?;
        let conn = TcpStream::connect_timeout(&sa, REQUEST_TIMEOUT)
            .map_err(|e| ClusterError::Io(format!("connect {addr}: {e}")))?;
        let _ = conn.set_nodelay(true);
        Ok(conn)
    }

    fn checkin(&self, addr: &str, conn: TcpStream) {
        let mut pool = self.inner.pool.lock();
        let conns = pool.entry(addr.to_string()).or_default();
        if conns.len() < POOL_PER_ADDR {
            conns.push(conn);
        }
    }

    /// One request/response exchange on one connection, no retries. Any
    /// failure discards the connection (its stream state is unknown).
    fn exchange(&self, addr: &str, op: OpCode, body: &[u8], timeout: Duration) -> Result<Bytes> {
        let mut conn = self.checkout(addr)?;
        conn.set_read_timeout(Some(timeout))
            .map_err(|e| ClusterError::Io(format!("set timeout: {e}")))?;
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let frame = wire::encode_frame(op as u8, id, body);
        conn.write_all(&frame).map_err(|e| ClusterError::Io(format!("send {addr}: {e}")))?;

        let mut len_buf = [0u8; 4];
        read_full(&mut conn, &mut len_buf, addr)?;
        let len = wire::check_frame_len(u32::from_le_bytes(len_buf))?;
        let mut payload = vec![0u8; len];
        read_full(&mut conn, &mut payload, addr)?;
        let resp = wire::decode_frame(&payload)?;
        if resp.request_id != id {
            return Err(ClusterError::Protocol(format!(
                "response id {} for request {id}",
                resp.request_id
            )));
        }
        let out = match resp.tag {
            STATUS_OK => Ok(resp.body),
            STATUS_ERR => Err(wire::decode_error(&resp.body)),
            t => Err(ClusterError::Protocol(format!("bad status byte {t}"))),
        };
        // Pool the connection again only after a clean exchange — an error
        // response still left the stream frame-aligned.
        if !matches!(out, Err(ClusterError::Protocol(_))) {
            self.checkin(addr, conn);
        }
        out
    }

    // -- routing state -------------------------------------------------------

    /// Addresses worth talking to: known roster entries, then bootstrap.
    fn candidate_addrs(&self) -> Vec<String> {
        let mut addrs: Vec<String> = self.inner.roster.lock().values().cloned().collect();
        for b in &self.inner.bootstrap {
            if !addrs.contains(b) {
                addrs.push(b.clone());
            }
        }
        addrs
    }

    fn refresh_roster(&self) -> Result<()> {
        let mut last = ClusterError::Io("no servers reachable".into());
        for addr in self.candidate_addrs() {
            match self.exchange(&addr, OpCode::Roster, &[], REQUEST_TIMEOUT) {
                Ok(body) => {
                    let mut r = BodyReader::new(&body);
                    let n = r.count()?;
                    let mut roster = BTreeMap::new();
                    for _ in 0..n {
                        let id = r.u32()?;
                        let a = r.str()?;
                        roster.insert(id, a);
                    }
                    r.expect_end()?;
                    *self.inner.roster.lock() = roster;
                    return Ok(());
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    fn fetch_map(&self, table: &str) -> Result<TableMap> {
        let mut w = BodyWriter::new();
        w.str(table);
        let body = self.request_any(OpCode::PartitionMap, &w.finish())?;
        let mut r = BodyReader::new(&body);
        let n = r.count()?;
        let mut map = Vec::with_capacity(n);
        for _ in 0..n {
            let start = r.bytes()?;
            let _region = r.u32()?;
            let server = r.u32()?;
            let epoch = r.u64()?;
            map.push((start, server, epoch));
        }
        r.expect_end()?;
        if map.is_empty() {
            return Err(ClusterError::Protocol(format!("empty partition map for {table}")));
        }
        let map = Arc::new(map);
        self.inner.maps.lock().insert(table.to_string(), Arc::clone(&map));
        Ok(map)
    }

    fn map_of(&self, table: &str) -> Result<TableMap> {
        if let Some(m) = self.inner.maps.lock().get(table) {
            return Ok(Arc::clone(m));
        }
        self.fetch_map(table)
    }

    /// Drop the cached map (and, cheaply, refresh the roster) after a
    /// routing error told us it is stale.
    fn invalidate(&self, table: &str) {
        self.inner.maps.lock().remove(table);
        let _ = self.refresh_roster();
    }

    /// Invalidate after a failed exchange whose error says the cached map
    /// is stale: the region moved, its host died, or its epoch changed.
    fn invalidate_if_stale(&self, table: &str, e: &ClusterError) {
        if matches!(
            e,
            ClusterError::NotServing { .. }
                | ClusterError::ServerDown(_)
                | ClusterError::StaleEpoch { .. }
        ) {
            self.invalidate(table);
        }
    }

    /// Owner and epoch of `row`'s region under the cached map — the
    /// client-side mirror of `PartitionMap::server_for`: regions are sorted
    /// by start key and a key belongs to the last region starting at or
    /// before it.
    fn route_of(&self, table: &str, row: &[u8]) -> Result<(ServerId, u64)> {
        let map = self.map_of(table)?;
        let key = row_start(row);
        let idx = map.partition_point(|(start, _, _)| start.as_ref() <= key.as_ref());
        let (_, server, epoch) = &map[idx.saturating_sub(1)];
        Ok((*server, *epoch))
    }

    fn addr_of(&self, server: ServerId) -> Result<String> {
        if let Some(a) = self.inner.roster.lock().get(&server) {
            return Ok(a.clone());
        }
        self.refresh_roster()?;
        self.inner
            .roster
            .lock()
            .get(&server)
            .cloned()
            .ok_or_else(|| ClusterError::Io(format!("no address for server {server}")))
    }

    fn backoff(&self, attempt: u32) {
        let ceiling = BACKOFF.saturating_mul(1 << attempt.min(6)).min(Duration::from_millis(100));
        // Equal jitter: sleep half the exponential ceiling plus a uniform
        // random slice of the other half. One failover event wakes every
        // blocked client at once; without jitter they would all retry the
        // new owner at the same instants. `RandomState`'s per-instance seed
        // is the stdlib's entropy source — no external rand dependency.
        let nanos = (ceiling.as_nanos() as u64).max(2);
        let jitter = std::collections::hash_map::RandomState::new().hash_one(attempt)
            % (nanos / 2).max(1);
        std::thread::sleep(Duration::from_nanos(nanos / 2 + jitter));
    }

    // -- retry wrappers ------------------------------------------------------

    /// Row-addressed request: route by cached map, retry with invalidation
    /// on routing staleness and with plain re-send on ambiguous transport
    /// failures (see module docs for why that is safe). The body is rebuilt
    /// per attempt from the current epoch of the row's region, so a write
    /// retried after `StaleEpoch`/`ServerDown` invalidation is re-stamped
    /// from the refreshed map: client-transparent failover. Reads ignore
    /// the epoch.
    fn request_routed(
        &self,
        table: &str,
        row: &[u8],
        op: OpCode,
        build: impl Fn(u64) -> Bytes,
    ) -> Result<Bytes> {
        let mut last = None;
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                self.backoff(attempt - 1);
            }
            let target = self
                .route_of(table, row)
                .and_then(|(owner, epoch)| Ok((self.addr_of(owner)?, epoch)));
            let (addr, epoch) = match target {
                Ok(t) => t,
                Err(e) if e.is_retryable() => {
                    self.invalidate(table);
                    last = Some(e);
                    continue;
                }
                Err(e) => return Err(e),
            };
            match self.exchange(&addr, op, &build(epoch), REQUEST_TIMEOUT) {
                Ok(b) => return Ok(b),
                Err(e) if e.is_retryable() => {
                    self.invalidate_if_stale(table, &e);
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| ClusterError::Io("request retries exhausted".into())))
    }

    /// Location-independent request (scans, table/index admin, metadata):
    /// any server acts as gateway; rotate through servers on failure.
    fn request_any_with_timeout(
        &self,
        op: OpCode,
        body: &[u8],
        timeout: Duration,
    ) -> Result<Bytes> {
        let mut last = None;
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                self.backoff(attempt - 1);
            }
            let addrs = self.candidate_addrs();
            if addrs.is_empty() {
                return Err(ClusterError::Io("no known servers".into()));
            }
            let addr = &addrs[attempt as usize % addrs.len()];
            match self.exchange(addr, op, body, timeout) {
                Ok(b) => return Ok(b),
                Err(e) if e.is_retryable() => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| ClusterError::Io("request retries exhausted".into())))
    }

    fn request_any(&self, op: OpCode, body: &[u8]) -> Result<Bytes> {
        self.request_any_with_timeout(op, body, REQUEST_TIMEOUT)
    }

    /// Liveness probe against any server.
    pub fn ping(&self) -> Result<()> {
        self.request_any(OpCode::Ping, &[]).map(|_| ())
    }

    /// Liveness probe against one specific server — the prober a
    /// [`HealthMonitor`](diff_index_cluster::HealthMonitor) uses in net
    /// mode. Single attempt, no retries: a probe must report the failure,
    /// not mask it.
    pub fn ping_server(&self, server: ServerId) -> Result<()> {
        let addr = self.addr_of(server)?;
        self.exchange(&addr, OpCode::Ping, &[], REQUEST_TIMEOUT).map(|_| ())
    }
}

fn read_full(conn: &mut TcpStream, buf: &mut [u8], addr: &str) -> Result<()> {
    let mut read = 0usize;
    while read < buf.len() {
        match conn.read(&mut buf[read..]) {
            Ok(0) => {
                return Err(ClusterError::Io(format!("{addr}: connection closed mid-response")))
            }
            Ok(n) => read += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Err(ClusterError::Timeout(format!("{addr}: no response within deadline")))
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(ClusterError::Io(format!("{addr}: {e}"))),
        }
    }
    Ok(())
}

fn decode_scan(body: &[u8]) -> Result<Vec<RowGroup>> {
    let mut r = BodyReader::new(body);
    let n = r.count()?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        rows.push(r.row_group()?);
    }
    r.expect_end()?;
    Ok(rows)
}

fn decode_u64(body: &[u8]) -> Result<u64> {
    let mut r = BodyReader::new(body);
    let v = r.u64()?;
    r.expect_end()?;
    Ok(v)
}

fn expect_empty(body: &[u8]) -> Result<()> {
    BodyReader::new(body).expect_end()
}

impl Store for RemoteClient {
    fn put(&self, table: &str, row: &[u8], columns: &[ColumnValue]) -> Result<u64> {
        let body = self.request_routed(table, row, OpCode::Put, |epoch| {
            let mut w = BodyWriter::new();
            w.str(table).bytes(row).columns(columns).u64(epoch);
            w.finish()
        })?;
        decode_u64(&body)
    }

    fn put_batch(&self, table: &str, rows: &[(Bytes, Vec<ColumnValue>)]) -> Result<Vec<u64>> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        // Group rows by owning server and send one PutBatch per server; rows
        // of a group that fails retryably stay pending and are re-grouped
        // (the map may have changed) on the next attempt. Timestamps are
        // stitched back together in input order.
        let mut stamps = vec![0u64; rows.len()];
        let mut pending: Vec<usize> = (0..rows.len()).collect();
        let mut last = None;
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                self.backoff(attempt - 1);
            }
            let mut groups: HashMap<ServerId, Vec<(usize, u64)>> = HashMap::new();
            let mut routing_failed = Vec::new();
            for &i in &pending {
                match self.route_of(table, &rows[i].0) {
                    Ok((owner, epoch)) => groups.entry(owner).or_default().push((i, epoch)),
                    Err(e) if e.is_retryable() => {
                        self.invalidate(table);
                        last = Some(e);
                        routing_failed.push(i);
                    }
                    Err(e) => return Err(e),
                }
            }
            let mut still_pending = routing_failed;
            for (owner, idxs) in groups {
                let mut w = BodyWriter::new();
                w.str(table).u32(idxs.len() as u32);
                for &(i, epoch) in &idxs {
                    w.bytes(&rows[i].0).columns(&rows[i].1).u64(epoch);
                }
                let outcome = self
                    .addr_of(owner)
                    .and_then(|addr| {
                        self.exchange(&addr, OpCode::PutBatch, &w.finish(), REQUEST_TIMEOUT)
                    })
                    .and_then(|body| {
                        let mut r = BodyReader::new(&body);
                        let n = r.count()?;
                        if n != idxs.len() {
                            return Err(ClusterError::Protocol(format!(
                                "batch returned {n} stamps for {} rows",
                                idxs.len()
                            )));
                        }
                        let mut ts = Vec::with_capacity(n);
                        for _ in 0..n {
                            ts.push(r.u64()?);
                        }
                        r.expect_end()?;
                        Ok(ts)
                    });
                match outcome {
                    Ok(ts) => {
                        for (&(i, _), t) in idxs.iter().zip(ts) {
                            stamps[i] = t;
                        }
                    }
                    Err(e) if e.is_retryable() => {
                        self.invalidate_if_stale(table, &e);
                        last = Some(e);
                        still_pending.extend(idxs.iter().map(|&(i, _)| i));
                    }
                    Err(e) => return Err(e),
                }
            }
            pending = still_pending;
            if pending.is_empty() {
                return Ok(stamps);
            }
        }
        Err(last.unwrap_or_else(|| ClusterError::Io("batch retries exhausted".into())))
    }

    fn put_returning(&self, table: &str, row: &[u8], columns: &[ColumnValue]) -> Result<PutOutcome> {
        let body = self.request_routed(table, row, OpCode::PutReturning, |epoch| {
            let mut w = BodyWriter::new();
            w.str(table).bytes(row).columns(columns).u64(epoch);
            w.finish()
        })?;
        wire::decode_put_outcome(&body)
    }

    fn delete(&self, table: &str, row: &[u8], columns: &[Bytes]) -> Result<u64> {
        let body = self.request_routed(table, row, OpCode::Delete, |epoch| {
            let mut w = BodyWriter::new();
            w.str(table).bytes(row).names(columns).u64(epoch);
            w.finish()
        })?;
        decode_u64(&body)
    }

    fn raw_put(&self, table: &str, row: &[u8], columns: &[ColumnValue], ts: u64) -> Result<()> {
        let body = self.request_routed(table, row, OpCode::RawPut, |epoch| {
            let mut w = BodyWriter::new();
            w.str(table).bytes(row).columns(columns).u64(ts).u64(epoch);
            w.finish()
        })?;
        expect_empty(&body)
    }

    fn raw_delete(&self, table: &str, row: &[u8], columns: &[Bytes], ts: u64) -> Result<()> {
        let body = self.request_routed(table, row, OpCode::RawDelete, |epoch| {
            let mut w = BodyWriter::new();
            w.str(table).bytes(row).names(columns).u64(ts).u64(epoch);
            w.finish()
        })?;
        expect_empty(&body)
    }

    fn get(&self, table: &str, row: &[u8], column: &[u8], ts: u64) -> Result<Option<VersionedValue>> {
        let mut w = BodyWriter::new();
        w.str(table).bytes(row).bytes(column).u64(ts);
        let req = w.finish();
        let body = self.request_routed(table, row, OpCode::Get, |_| req.clone())?;
        let mut r = BodyReader::new(&body);
        let out = match r.u8()? {
            0 => None,
            1 => Some(r.versioned()?),
            t => return Err(ClusterError::Protocol(format!("bad option tag {t}"))),
        };
        r.expect_end()?;
        Ok(out)
    }

    fn get_cell_versioned(
        &self,
        table: &str,
        row: &[u8],
        column: &[u8],
        ts: u64,
    ) -> Result<Option<(u64, bool)>> {
        let mut w = BodyWriter::new();
        w.str(table).bytes(row).bytes(column).u64(ts);
        let req = w.finish();
        let body = self.request_routed(table, row, OpCode::GetCellVersioned, |_| req.clone())?;
        let mut r = BodyReader::new(&body);
        let out = match r.u8()? {
            0 => None,
            1 => {
                let cts = r.u64()?;
                let tomb = r.u8()? != 0;
                Some((cts, tomb))
            }
            t => return Err(ClusterError::Protocol(format!("bad option tag {t}"))),
        };
        r.expect_end()?;
        Ok(out)
    }

    fn get_row(&self, table: &str, row: &[u8], ts: u64) -> Result<Vec<(Bytes, VersionedValue)>> {
        let mut w = BodyWriter::new();
        w.str(table).bytes(row).u64(ts);
        let req = w.finish();
        let body = self.request_routed(table, row, OpCode::GetRow, |_| req.clone())?;
        let mut r = BodyReader::new(&body);
        let n = r.count()?;
        let mut cols = Vec::with_capacity(n);
        for _ in 0..n {
            let c = r.bytes()?;
            let v = r.versioned()?;
            cols.push((c, v));
        }
        r.expect_end()?;
        Ok(cols)
    }

    fn scan_rows(
        &self,
        table: &str,
        start_row: &[u8],
        end_row: Option<&[u8]>,
        ts: u64,
        limit: usize,
    ) -> Result<Vec<RowGroup>> {
        let mut w = BodyWriter::new();
        w.str(table).bytes(start_row).opt_bytes(end_row).u64(ts).u64(limit as u64);
        decode_scan(&self.request_any(OpCode::ScanRows, &w.finish())?)
    }

    fn scan_rows_prefix(
        &self,
        table: &str,
        row_prefix: &[u8],
        ts: u64,
        limit: usize,
    ) -> Result<Vec<RowGroup>> {
        let mut w = BodyWriter::new();
        w.str(table).bytes(row_prefix).u64(ts).u64(limit as u64);
        decode_scan(&self.request_any(OpCode::ScanRowsPrefix, &w.finish())?)
    }

    fn scan_rows_range(
        &self,
        table: &str,
        start_row: &[u8],
        end_row: Option<&[u8]>,
        ts: u64,
        limit: usize,
    ) -> Result<Vec<RowGroup>> {
        let mut w = BodyWriter::new();
        w.str(table).bytes(start_row).opt_bytes(end_row).u64(ts).u64(limit as u64);
        decode_scan(&self.request_any(OpCode::ScanRowsRange, &w.finish())?)
    }

    fn create_table(&self, name: &str, num_regions: usize) -> Result<()> {
        let mut w = BodyWriter::new();
        w.str(name).u32(num_regions as u32);
        expect_empty(&self.request_any(OpCode::CreateTable, &w.finish())?)
    }

    fn has_table(&self, table: &str) -> Result<bool> {
        let mut w = BodyWriter::new();
        w.str(table);
        let body = self.request_any(OpCode::HasTable, &w.finish())?;
        let mut r = BodyReader::new(&body);
        let v = r.u8()? != 0;
        r.expect_end()?;
        Ok(v)
    }

    fn flush_table(&self, table: &str) -> Result<()> {
        let mut w = BodyWriter::new();
        w.str(table);
        expect_empty(&self.request_any(OpCode::FlushTable, &w.finish())?)
    }

    fn admin_create_index(&self, spec: &IndexSpec, num_regions: usize) -> Result<()> {
        let mut w = BodyWriter::new();
        wire::encode_index_spec(&mut w, spec);
        w.u32(num_regions as u32);
        expect_empty(&self.request_any_with_timeout(
            OpCode::CreateIndex,
            &w.finish(),
            ADMIN_TIMEOUT,
        )?)
    }

    fn admin_drop_index(&self, base_table: &str, name: &str) -> Result<()> {
        let mut w = BodyWriter::new();
        w.str(base_table).str(name);
        expect_empty(&self.request_any_with_timeout(
            OpCode::DropIndex,
            &w.finish(),
            ADMIN_TIMEOUT,
        )?)
    }

    fn admin_quiesce(&self, base_table: &str) -> Result<()> {
        let mut w = BodyWriter::new();
        w.str(base_table);
        expect_empty(&self.request_any_with_timeout(
            OpCode::Quiesce,
            &w.finish(),
            ADMIN_TIMEOUT,
        )?)
    }
}
