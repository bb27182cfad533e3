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

use crate::wire::{self, BatchRow, Class, Request, Response, STATUS_ERR, STATUS_OK};
use bytes::Bytes;
use diff_index_cluster::encoding::row_start;
use diff_index_cluster::{ClusterError, ColumnValue, PutOutcome, Result, RowGroup, ServerId};
use diff_index_core::{IndexSpec, Store};
use diff_index_lsm::VersionedValue;
use parking_lot::Mutex;
use std::borrow::Cow;
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

/// Send a request and unwrap the response shape its opcode decodes to.
macro_rules! call {
    ($client:expr, $req:expr, $shape:pat => $out:expr) => {
        match $client.call($req)? {
            $shape => Ok($out),
            other => Err(unexpected(other)),
        }
    };
}

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

    /// One request/response exchange on one connection, no retries, under
    /// the deadline of the request's class. Any failure discards the
    /// connection (its stream state is unknown).
    fn exchange(&self, addr: &str, req: &Request<'_>) -> Result<Response> {
        let timeout = if req.class() == Class::Admin { ADMIN_TIMEOUT } else { REQUEST_TIMEOUT };
        let mut conn = self.checkout(addr)?;
        conn.set_read_timeout(Some(timeout))
            .map_err(|e| ClusterError::Io(format!("set timeout: {e}")))?;
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        conn.write_all(&req.encode(id))
            .map_err(|e| ClusterError::Io(format!("send {addr}: {e}")))?;

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
        Response::decode(req.op(), &out?)
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
            match self.exchange(&addr, &Request::Roster) {
                Ok(Response::Roster(entries)) => {
                    *self.inner.roster.lock() = entries.into_iter().collect();
                    return Ok(());
                }
                Ok(other) => last = unexpected(other),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    fn fetch_map(&self, table: &str) -> Result<TableMap> {
        let snapshot = call!(self, Request::PartitionMap(table), Response::PartitionMap(m) => m)?;
        let map: Vec<_> = snapshot
            .into_iter()
            .map(|(start, _region, server, epoch)| (start, server, epoch))
            .collect();
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

    /// Send `req` where its class says. A row-addressed request is routed
    /// by the cached map, retried with invalidation on routing staleness
    /// and with plain re-send on ambiguous transport failures (see module
    /// docs for why that is safe). A write is re-stamped per attempt with
    /// the current epoch of the row's region, so a write retried after
    /// `StaleEpoch`/`ServerDown` invalidation carries the refreshed map's
    /// epoch: client-transparent failover. Gateway and admin requests go to
    /// any server.
    fn call(&self, mut req: Request<'_>) -> Result<Response> {
        let (table, row) = match req.class() {
            // `put_batch` routes its own per-owner groups; any other write
            // names exactly one row.
            Class::Write(table, rows) => (table, rows.first().expect("a single-row write").0),
            Class::Read(table, row) => (table, row),
            Class::Gateway | Class::Admin => return self.call_any(&req),
        };
        let mut last = None;
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                self.backoff(attempt - 1);
            }
            let target = self
                .route_of(table, row)
                .and_then(|(owner, epoch)| Ok((self.addr_of(owner)?, epoch)));
            let addr = match target {
                Ok((addr, epoch)) => {
                    req.stamp(epoch);
                    addr
                }
                Err(e) if e.is_retryable() => {
                    self.invalidate(table);
                    last = Some(e);
                    continue;
                }
                Err(e) => return Err(e),
            };
            match self.exchange(&addr, &req) {
                Ok(r) => return Ok(r),
                Err(e) if e.is_retryable() => {
                    self.invalidate_if_stale(table, &e);
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| ClusterError::Io("request retries exhausted".into())))
    }

    /// Location-independent request: any server acts as gateway; rotate
    /// through servers on failure.
    fn call_any(&self, req: &Request<'_>) -> Result<Response> {
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
            match self.exchange(addr, req) {
                Ok(r) => return Ok(r),
                Err(e) if e.is_retryable() => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| ClusterError::Io("request retries exhausted".into())))
    }

    /// Liveness probe against any server.
    pub fn ping(&self) -> Result<()> {
        call!(self, Request::Ping, Response::Unit => ())
    }

    /// Liveness probe against one specific server — the prober a
    /// [`HealthMonitor`](diff_index_cluster::HealthMonitor) uses in net
    /// mode. Single attempt, no retries: a probe must report the failure,
    /// not mask it.
    pub fn ping_server(&self, server: ServerId) -> Result<()> {
        let addr = self.addr_of(server)?;
        self.exchange(&addr, &Request::Ping).map(|_| ())
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

/// A response that does not answer its request (wrong shape or row count).
fn unexpected(r: Response) -> ClusterError {
    ClusterError::Protocol(format!("unexpected response {r:?}"))
}

impl Store for RemoteClient {
    fn put(&self, table: &str, row: &[u8], columns: &[ColumnValue]) -> Result<u64> {
        call!(self, Request::Put(table, row, columns.into(), 0), Response::Ts(ts) => ts)
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
            let mut groups: HashMap<ServerId, (Vec<usize>, Vec<BatchRow<'_>>)> = HashMap::new();
            let mut routing_failed = Vec::new();
            for &i in &pending {
                match self.route_of(table, &rows[i].0) {
                    Ok((owner, epoch)) => {
                        let (idxs, batch) = groups.entry(owner).or_default();
                        idxs.push(i);
                        batch.push((&rows[i].0, Cow::Borrowed(&rows[i].1), epoch));
                    }
                    Err(e) if e.is_retryable() => {
                        self.invalidate(table);
                        last = Some(e);
                        routing_failed.push(i);
                    }
                    Err(e) => return Err(e),
                }
            }
            let mut still_pending = routing_failed;
            for (owner, (idxs, batch)) in groups {
                let req = Request::PutBatch(table, batch);
                let outcome = self
                    .addr_of(owner)
                    .and_then(|addr| self.exchange(&addr, &req))
                    .and_then(|resp| match resp {
                        Response::Stamps(ts) if ts.len() == idxs.len() => Ok(ts),
                        other => Err(unexpected(other)),
                    });
                match outcome {
                    Ok(ts) => {
                        for (&i, t) in idxs.iter().zip(ts) {
                            stamps[i] = t;
                        }
                    }
                    Err(e) if e.is_retryable() => {
                        self.invalidate_if_stale(table, &e);
                        last = Some(e);
                        still_pending.extend(idxs);
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
        call!(self, Request::PutReturning(table, row, columns.into(), 0), Response::Outcome(o) => o)
    }

    fn delete(&self, table: &str, row: &[u8], columns: &[Bytes]) -> Result<u64> {
        call!(self, Request::Delete(table, row, columns.into(), 0), Response::Ts(ts) => ts)
    }

    fn raw_put(&self, table: &str, row: &[u8], columns: &[ColumnValue], ts: u64) -> Result<()> {
        call!(self, Request::RawPut(table, row, columns.into(), ts, 0), Response::Unit => ())
    }

    fn raw_delete(&self, table: &str, row: &[u8], columns: &[Bytes], ts: u64) -> Result<()> {
        call!(self, Request::RawDelete(table, row, columns.into(), ts, 0), Response::Unit => ())
    }

    fn get(&self, table: &str, row: &[u8], column: &[u8], ts: u64) -> Result<Option<VersionedValue>> {
        call!(self, Request::Get(table, row, column, ts), Response::Value(v) => v)
    }

    fn get_cell_versioned(
        &self,
        table: &str,
        row: &[u8],
        column: &[u8],
        ts: u64,
    ) -> Result<Option<(u64, bool)>> {
        call!(self, Request::GetCellVersioned(table, row, column, ts), Response::Cell(c) => c)
    }

    fn get_row(&self, table: &str, row: &[u8], ts: u64) -> Result<Vec<(Bytes, VersionedValue)>> {
        call!(self, Request::GetRow(table, row, ts), Response::Row(cols) => cols)
    }

    fn scan_rows(
        &self,
        table: &str,
        start_row: &[u8],
        end_row: Option<&[u8]>,
        ts: u64,
        limit: usize,
    ) -> Result<Vec<RowGroup>> {
        let req = Request::ScanRows(table, start_row, end_row, ts, limit);
        call!(self, req, Response::Rows(rows) => rows)
    }

    fn scan_rows_prefix(
        &self,
        table: &str,
        row_prefix: &[u8],
        ts: u64,
        limit: usize,
    ) -> Result<Vec<RowGroup>> {
        let req = Request::ScanRowsPrefix(table, row_prefix, ts, limit);
        call!(self, req, Response::Rows(rows) => rows)
    }

    fn scan_rows_range(
        &self,
        table: &str,
        start_row: &[u8],
        end_row: Option<&[u8]>,
        ts: u64,
        limit: usize,
    ) -> Result<Vec<RowGroup>> {
        let req = Request::ScanRowsRange(table, start_row, end_row, ts, limit);
        call!(self, req, Response::Rows(rows) => rows)
    }

    fn create_table(&self, name: &str, num_regions: usize) -> Result<()> {
        call!(self, Request::CreateTable(name, num_regions), Response::Unit => ())
    }

    fn has_table(&self, table: &str) -> Result<bool> {
        call!(self, Request::HasTable(table), Response::Bool(b) => b)
    }

    fn flush_table(&self, table: &str) -> Result<()> {
        call!(self, Request::FlushTable(table), Response::Unit => ())
    }

    fn admin_create_index(&self, spec: &IndexSpec, num_regions: usize) -> Result<()> {
        call!(self, Request::CreateIndex(Cow::Borrowed(spec), num_regions), Response::Unit => ())
    }

    fn admin_drop_index(&self, base_table: &str, name: &str) -> Result<()> {
        call!(self, Request::DropIndex(base_table, name), Response::Unit => ())
    }

    fn admin_quiesce(&self, base_table: &str) -> Result<()> {
        call!(self, Request::Quiesce(base_table), Response::Unit => ())
    }
}
