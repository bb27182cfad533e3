//! The region-server network frontend: one TCP listener per region server,
//! serving the wire protocol of [`crate::wire`] against an in-process
//! [`Cluster`](diff_index_cluster::Cluster).
//!
//! ## Topology
//!
//! The repo's `Cluster` simulates N region servers inside one process; the
//! network layer gives each of them a real listener. A [`ServerGroup`]
//! binds one [`Server`] per cluster `ServerId` on loopback, all sharing the
//! cluster and one [`DiffIndex`] (for server-side index administration —
//! observers and AUQs live next to the data, as coprocessors do in HBase).
//! Each server *polices ownership*: a row-addressed request for a region
//! it does not host is rejected with [`ClusterError::NotServing`] carrying
//! the current owner, exactly like HBase's `NotServingRegionException` —
//! that is what drives client partition-map invalidation.
//!
//! ## Threading
//!
//! One accept thread per server; one reader thread per connection. A reader
//! decodes frames and hands each request to the cluster's existing
//! [`FanoutPool`](diff_index_cluster::FanoutPool) without waiting for the
//! result, so a connection can carry many requests in flight (pipelining);
//! responses carry the request id and may complete out of order. Writes to
//! a connection are serialized by a per-connection mutex.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] is graceful and ordered: stop accepting, stop
//! reading new frames, then **drain** — every request already dispatched
//! writes its response before `shutdown` returns. Only after that may the
//! caller stop AUQ workers and drop the cluster, so a client can never
//! observe an acknowledged write that the store subsequently forgot.

use crate::metrics::{NetMetrics, NetMetricsSnapshot};
use crate::wire::{self, Class, OpCode, Request, Response, STATUS_ERR};
use bytes::Bytes;
use diff_index_cluster::{ClusterError, FaultPoint, Result, ServerId};
use diff_index_core::DiffIndex;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a connection reader blocks on the socket before re-checking the
/// shutdown flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// Shared `server id -> address` registry. Every [`Server`] of a group
/// registers itself here at bind time; clients bootstrap their routing
/// state from it via the `Roster` opcode (the stand-in for HBase's META).
#[derive(Clone, Default)]
pub struct Roster {
    inner: Arc<Mutex<BTreeMap<ServerId, String>>>,
}

impl Roster {
    /// Empty roster.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a server's address.
    pub fn insert(&self, id: ServerId, addr: String) {
        self.inner.lock().insert(id, addr);
    }

    /// All `(server id, address)` pairs.
    pub fn entries(&self) -> Vec<(ServerId, String)> {
        self.inner.lock().iter().map(|(k, v)| (*k, v.clone())).collect()
    }
}

struct Inner {
    di: DiffIndex,
    /// The cluster server id this listener fronts.
    served_id: ServerId,
    roster: Roster,
    addr: SocketAddr,
    shutdown: AtomicBool,
    /// Requests dispatched but not yet responded to.
    inflight: AtomicUsize,
    metrics: NetMetrics,
    conns: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Clones of every *live* connection's socket, keyed by connection id,
    /// so fault injection can sever them from outside the reader threads.
    /// Entries are removed when a connection ends — a lingering clone would
    /// hold the duplicated fd open and suppress the FIN the client expects.
    socks: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
}

/// A TCP frontend for one region server of an in-process cluster.
pub struct Server {
    inner: Arc<Inner>,
    accept: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.inner.addr)
            .field("served_id", &self.inner.served_id)
            .finish()
    }
}

impl Server {
    /// Bind a listener on `addr` (use `127.0.0.1:0` for an ephemeral port)
    /// fronting `di`'s cluster as region server `served_id`, and register
    /// it in `roster`. Row-addressed requests for regions `served_id` does
    /// not host are rejected.
    pub fn start(
        di: DiffIndex,
        addr: &str,
        served_id: ServerId,
        roster: Roster,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        roster.insert(served_id, local.to_string());
        let inner = Arc::new(Inner {
            di,
            served_id,
            roster,
            addr: local,
            shutdown: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            metrics: NetMetrics::default(),
            conns: Mutex::new(Vec::new()),
            socks: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
        });
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name(format!("net-accept-{served_id}"))
            .spawn(move || accept_loop(&accept_inner, listener))?;
        Ok(Server { inner, accept: Mutex::new(Some(accept)) })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Per-opcode request/byte/latency metrics.
    pub fn metrics(&self) -> NetMetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// Fault injection: abruptly sever every currently open client
    /// connection (a network partition between client and this server).
    /// Requests already dispatched still execute — only their responses are
    /// lost — so every in-flight write becomes an ambiguous ack at the
    /// client. Returns how many sockets were severed (dead ones included).
    pub fn kill_connections(&self) -> usize {
        let socks: Vec<TcpStream> =
            self.inner.socks.lock().drain().map(|(_, s)| s).collect();
        for s in &socks {
            let _ = s.shutdown(Shutdown::Both);
        }
        socks.len()
    }

    /// Graceful, ordered shutdown: stop accepting, stop reading frames,
    /// drain every dispatched request (responses written) and only then
    /// return. Idempotent. Call this *before* tearing down AUQ workers or
    /// the cluster.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(); poke it with a throwaway
        // connection so it observes the flag.
        let _ = TcpStream::connect(self.inner.addr);
        if let Some(h) = self.accept.lock().take() {
            let _ = h.join();
        }
        // Connection readers observe the flag within READ_POLL and exit;
        // responses for frames they already dispatched are still written
        // because each dispatched job owns a clone of its socket.
        let handles: Vec<_> = self.inner.conns.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        while self.inner.inflight.load(Ordering::Acquire) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One listener per region server of `di`'s cluster, all on loopback
/// ephemeral ports, sharing one roster — the standard multi-server
/// topology for tests and loopback benchmarks.
pub struct ServerGroup {
    servers: Vec<Server>,
    roster: Roster,
}

impl ServerGroup {
    /// Start a listener for every live server of the cluster.
    pub fn start(di: &DiffIndex) -> std::io::Result<ServerGroup> {
        let roster = Roster::new();
        let mut servers = Vec::new();
        for sid in di.cluster().servers() {
            servers.push(Server::start(di.clone(), "127.0.0.1:0", sid, roster.clone())?);
        }
        Ok(ServerGroup { servers, roster })
    }

    /// Addresses of every listener (bootstrap list for a client).
    pub fn addrs(&self) -> Vec<String> {
        self.servers.iter().map(|s| s.addr().to_string()).collect()
    }

    /// The shared roster.
    pub fn roster(&self) -> &Roster {
        &self.roster
    }

    /// The servers, in cluster `ServerId` order.
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// Metrics of every listener, one snapshot each, in `ServerId` order.
    pub fn metrics(&self) -> Vec<NetMetricsSnapshot> {
        self.servers.iter().map(|s| s.metrics()).collect()
    }

    /// Sever every open client connection on every listener (see
    /// [`Server::kill_connections`]). Returns the total severed.
    pub fn kill_connections(&self) -> usize {
        self.servers.iter().map(Server::kill_connections).sum()
    }

    /// Shut every listener down gracefully (drains in-flight requests).
    pub fn shutdown(&self) {
        for s in &self.servers {
            s.shutdown();
        }
    }
}

fn accept_loop(inner: &Arc<Inner>, listener: TcpListener) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(s) => s,
            Err(_) => continue,
        };
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let conn_inner = Arc::clone(inner);
        let h = std::thread::Builder::new()
            .name("net-conn".into())
            .spawn(move || conn_loop(&conn_inner, stream))
            .expect("spawn connection thread");
        inner.conns.lock().push(h);
    }
}

/// Outcome of trying to read one full frame.
enum ReadFrame {
    Frame(Vec<u8>),
    /// Peer closed, or shutdown requested while idle / mid-frame.
    Done,
}

fn read_frame(stream: &mut TcpStream, inner: &Inner) -> std::io::Result<ReadFrame> {
    let mut len_buf = [0u8; 4];
    if !read_full(stream, &mut len_buf, inner)? {
        return Ok(ReadFrame::Done);
    }
    let len = match wire::check_frame_len(u32::from_le_bytes(len_buf)) {
        Ok(l) => l,
        Err(_) => {
            // Unframeable garbage: nothing else on this connection can be
            // trusted either.
            return Err(std::io::Error::new(ErrorKind::InvalidData, "bad frame length"));
        }
    };
    let mut payload = vec![0u8; len];
    if !read_full(stream, &mut payload, inner)? {
        return Ok(ReadFrame::Done);
    }
    Ok(ReadFrame::Frame(payload))
}

/// Read exactly `buf.len()` bytes, tolerating read timeouts (used to poll
/// the shutdown flag). Returns `false` on clean EOF before the first byte
/// or when shutdown is requested.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], inner: &Inner) -> std::io::Result<bool> {
    let mut read = 0usize;
    while read < buf.len() {
        match stream.read(&mut buf[read..]) {
            Ok(0) => return Ok(false),
            Ok(n) => read += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

fn conn_loop(inner: &Arc<Inner>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    // Register a clone for fault injection, and make sure it is dropped when
    // this connection ends: a lingering clone would hold the duplicated fd
    // open, suppressing the FIN/RST the client is waiting for.
    struct SockGuard<'a>(&'a Inner, u64);
    impl Drop for SockGuard<'_> {
        fn drop(&mut self) {
            self.0.socks.lock().remove(&self.1);
        }
    }
    let conn_id = inner.next_conn_id.fetch_add(1, Ordering::Relaxed);
    let _sock_guard = match stream.try_clone() {
        Ok(s) => {
            inner.socks.lock().insert(conn_id, s);
            Some(SockGuard(inner, conn_id))
        }
        Err(_) => None,
    };
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let payload = match read_frame(&mut stream, inner) {
            Ok(ReadFrame::Frame(p)) => p,
            Ok(ReadFrame::Done) => return,
            Err(_) => return,
        };
        let bytes_in = (4 + payload.len()) as u64;
        let frame = match wire::decode_frame(&payload) {
            Ok(f) => f,
            Err(e) => {
                // Header unreadable: answer with request id 0 and give up on
                // the stream (framing may be corrupt).
                let _ = writer.lock().write_all(&error_frame(0, &e));
                return;
            }
        };
        let Some(op) = OpCode::from_u8(frame.tag) else {
            let e = ClusterError::Protocol(format!("unknown opcode 0x{:02x}", frame.tag));
            let _ = writer.lock().write_all(&error_frame(frame.request_id, &e));
            continue;
        };
        // Pipelined dispatch: hand the request to the cluster's fan-out
        // pool and go straight back to reading the next frame. The response
        // is written (out of order if need be) under the writer mutex.
        inner.inflight.fetch_add(1, Ordering::AcqRel);
        let job_inner = Arc::clone(inner);
        let job_writer = Arc::clone(&writer);
        inner.di.cluster().fanout().spawn(move || {
            let guard = InflightGuard(&job_inner.inflight);
            let t0 = Instant::now();
            let result = handle(&job_inner, op, &frame.body);
            let resp = match &result {
                Ok(r) => r.encode(frame.request_id),
                Err(e) => error_frame(frame.request_id, e),
            };
            let faults = job_inner.di.cluster().faults();
            if faults.take(FaultPoint::DropResponse(job_inner.served_id)) {
                // Fault injection: the request executed, but the client
                // never hears back and its connection dies — its retry
                // must be harmless.
                let w = job_writer.lock();
                let _ = w.shutdown(Shutdown::Both);
            } else {
                let mut w = job_writer.lock();
                let _ = w.write_all(&resp);
            }
            job_inner.metrics.record(
                op,
                bytes_in,
                resp.len() as u64,
                t0.elapsed().as_micros() as u64,
                result.is_err(),
            );
            drop(guard);
        });
    }
}

/// Decrements the in-flight counter when the dispatch job finishes, even if
/// request handling panics — otherwise `shutdown()` would hang forever.
struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

fn error_frame(request_id: u64, e: &ClusterError) -> Bytes {
    wire::encode_frame(STATUS_ERR, request_id, &wire::encode_error(e))
}

/// Police a request by its class before running it. Row-addressed requests
/// for regions this listener does not host are rejected with `NotServing`.
/// A write's epoch stamps must match its regions' current epochs, or it is
/// fenced with [`ClusterError::StaleEpoch`] — the guard that makes a
/// zombie's post-failover writes impossible to apply. A stamp of `0` means
/// "unstamped": bootstrap writes and epoch-unaware callers skip fencing;
/// region epochs start at 1, so 0 can never collide with a real epoch. A
/// batch is checked whole (ownership, then epochs) before any of it
/// applies, so a misrouted or fenced batch is rejected atomically.
fn check(inner: &Inner, req: &Request<'_>) -> Result<()> {
    let cluster = inner.di.cluster();
    let check_owner = |table: &str, row: &[u8]| {
        let owner = cluster.server_for_row(table, row)?;
        if owner == inner.served_id {
            Ok(())
        } else {
            Err(ClusterError::NotServing { owner })
        }
    };
    match req.class() {
        Class::Write(table, rows) => {
            for &(row, _) in &rows {
                check_owner(table, row)?;
            }
            for (row, epoch) in rows {
                if epoch != 0 {
                    cluster.check_write_epoch(table, row, epoch)?;
                }
            }
            Ok(())
        }
        Class::Read(table, row) => check_owner(table, row),
        Class::Gateway | Class::Admin => Ok(()),
    }
}

/// Execute one request: decode it, [`check`] it, run it against the
/// cluster or the index layer, and return the response to encode. Scans
/// and table/index administration are gateway ops: any server serves them,
/// mirroring how the in-process client fans scans out itself.
fn handle(inner: &Inner, op: OpCode, body: &[u8]) -> Result<Response> {
    let req = Request::decode(op, body)?;
    check(inner, &req)?;
    let cluster = inner.di.cluster();
    match req {
        Request::Ping => {
            // A listener whose region server has been declared dead must
            // fail its liveness probe: the TCP socket outliving the crash is
            // exactly the zombie scenario, and answering "healthy" here
            // would blind the master's failure detector.
            if !cluster.is_alive(inner.served_id) {
                return Err(ClusterError::ServerDown(inner.served_id));
            }
            Ok(Response::Unit)
        }
        Request::Roster => Ok(Response::Roster(inner.roster.entries())),
        Request::PartitionMap(table) => {
            cluster.partition_snapshot(table).map(Response::PartitionMap)
        }
        Request::Put(table, row, cols, _) => cluster.put(table, row, &cols).map(Response::Ts),
        Request::PutBatch(table, rows) => {
            let rows: Vec<_> = rows
                .into_iter()
                .map(|(row, cols, _)| (Bytes::copy_from_slice(row), cols.into_owned()))
                .collect();
            cluster.put_batch(table, &rows).map(Response::Stamps)
        }
        Request::PutReturning(table, row, cols, _) => {
            cluster.put_returning(table, row, &cols).map(Response::Outcome)
        }
        Request::Delete(table, row, cols, _) => cluster.delete(table, row, &cols).map(Response::Ts),
        Request::RawPut(table, row, cols, ts, _) => {
            cluster.raw_put(table, row, &cols, ts).map(|()| Response::Unit)
        }
        Request::RawDelete(table, row, cols, ts, _) => {
            cluster.raw_delete(table, row, &cols, ts).map(|()| Response::Unit)
        }
        Request::Get(table, row, col, ts) => cluster.get(table, row, col, ts).map(Response::Value),
        Request::GetCellVersioned(table, row, col, ts) => {
            cluster.get_cell_versioned(table, row, col, ts).map(Response::Cell)
        }
        Request::GetRow(table, row, ts) => cluster.get_row(table, row, ts).map(Response::Row),
        Request::ScanRows(table, start, end, ts, limit) => {
            cluster.scan_rows(table, start, end, ts, limit).map(Response::Rows)
        }
        Request::ScanRowsPrefix(table, prefix, ts, limit) => {
            cluster.scan_rows_prefix(table, prefix, ts, limit).map(Response::Rows)
        }
        Request::ScanRowsRange(table, start, end, ts, limit) => {
            cluster.scan_rows_range(table, start, end, ts, limit).map(Response::Rows)
        }
        Request::CreateTable(name, regions) => {
            cluster.create_table(name, regions).map(|()| Response::Unit)
        }
        Request::HasTable(table) => Ok(Response::Bool(cluster.has_table(table))),
        Request::FlushTable(table) => cluster.flush_table(table).map(|()| Response::Unit),
        Request::CreateIndex(spec, regions) => {
            inner.di.create_index(spec.into_owned(), regions)?;
            Ok(Response::Unit)
        }
        Request::DropIndex(base, name) => {
            inner.di.drop_index(base, name)?;
            Ok(Response::Unit)
        }
        Request::Quiesce(base) => {
            inner.di.quiesce(base);
            Ok(Response::Unit)
        }
    }
}
