//! Spans recorded from the benchmark's own code around the calls it makes
//! into each layer: a timing [`Store`] wrapper (client-facing `core::Store`
//! surface) and a timing [`TableObserver`] wrapper (the scheme's observer,
//! registered through `Cluster::register_observer`). Nothing inside the
//! program is instrumented.
//!
//! A span is opened and closed on one thread. Spans nest through a
//! thread-local stack: a closing span adds its duration to its parent's
//! child time, so every recorded span carries its own self time. Closed
//! spans go to a per-thread buffer registered in a global list, and
//! [`drain`] collects them after the load has stopped.

use bytes::Bytes;
use diff_index_cluster::{
    Cluster, ColumnValue, PutOutcome, ReplayedOp, Result as ClusterResult, RowGroup, TableObserver,
};
use diff_index_core::{IndexSpec, Store};
use diff_index_lsm::VersionedValue;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// What a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Root: one client update (or probe put).
    Update,
    /// Root: one `get_by_index` (client read or probe poll).
    Read,
    /// `Store::put`.
    StorePut,
    /// `Store::get` (sync-insert base checks).
    StoreGet,
    /// `Store::scan_rows_prefix` (index scans).
    StoreScan,
    /// `Store::raw_delete` (sync-insert read-repair).
    StoreRawDelete,
    /// `TableObserver::post_put` of the scheme's observer.
    PostPut,
    /// `pre_flush` → `post_flush` of a base-table region.
    Flush,
}

impl Kind {
    /// Stable name used in the span dump.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Update => "update",
            Kind::Read => "read",
            Kind::StorePut => "store.put",
            Kind::StoreGet => "store.get",
            Kind::StoreScan => "store.scan_rows_prefix",
            Kind::StoreRawDelete => "store.raw_delete",
            Kind::PostPut => "observer.post_put",
            Kind::Flush => "observer.flush",
        }
    }

    /// True for the spans that stand for one client operation.
    pub fn is_root(self) -> bool {
        matches!(self, Kind::Update | Kind::Read)
    }
}

/// One closed span. `op` is the id of the client operation it belongs to
/// (0 when it ran on a thread with no open operation, e.g. a server
/// thread behind the wire).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u64,
    pub kind: Kind,
    pub parent: Option<Kind>,
    /// Start, in nanoseconds since the process's trace epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Time covered by this span's direct children.
    pub child_ns: u64,
}

impl Span {
    /// Duration minus the part its children cover.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns.saturating_sub(self.child_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_OP: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static BUFFERS: Mutex<Vec<Arc<Mutex<Vec<Span>>>>> = Mutex::new(Vec::new());

struct Open {
    op: u64,
    kind: Kind,
    start: Instant,
    child_ns: u64,
}

struct Local {
    buf: Arc<Mutex<Vec<Span>>>,
    stack: Vec<Open>,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

/// Turn span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

/// True while spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> R {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let local = slot.get_or_insert_with(|| {
            let buf = Arc::new(Mutex::new(Vec::new()));
            BUFFERS
                .lock()
                .expect("trace buffer list poisoned")
                .push(Arc::clone(&buf));
            Local {
                buf,
                stack: Vec::new(),
            }
        });
        f(local)
    })
}

fn open(kind: Kind) {
    let start = Instant::now();
    with_local(|l| {
        let op = if kind.is_root() {
            NEXT_OP.fetch_add(1, Ordering::Relaxed)
        } else {
            l.stack.last().map_or(0, |o| o.op)
        };
        l.stack.push(Open {
            op,
            kind,
            start,
            child_ns: 0,
        });
    });
}

/// Close the innermost open span if it is of `kind`; anything else means
/// the matching open happened while recording was off, so nothing closes.
fn close(kind: Kind) {
    let end = Instant::now();
    with_local(|l| {
        if l.stack.last().map(|o| o.kind) != Some(kind) {
            return;
        }
        let o = l.stack.pop().expect("checked non-empty");
        let dur_ns = end.duration_since(o.start).as_nanos() as u64;
        let parent = l.stack.last_mut().map(|p| {
            p.child_ns += dur_ns;
            p.kind
        });
        let epoch = *EPOCH.get_or_init(Instant::now);
        let start_ns = o.start.saturating_duration_since(epoch).as_nanos() as u64;
        let span = Span {
            op: o.op,
            kind,
            parent,
            start_ns,
            dur_ns,
            child_ns: o.child_ns,
        };
        l.buf.lock().expect("trace buffer poisoned").push(span);
    });
}

/// Run `f` inside a span of `kind` (a plain call while recording is off).
pub fn span<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    open(kind);
    let r = f();
    close(kind);
    r
}

/// Take every span recorded so far, from every thread.
pub fn drain() -> Vec<Span> {
    let buffers = BUFFERS.lock().expect("trace buffer list poisoned");
    let mut out = Vec::new();
    for b in buffers.iter() {
        out.append(&mut b.lock().expect("trace buffer poisoned"));
    }
    out
}

/// Write spans as CSV (`op,kind,parent,start_ns,dur_ns,self_ns`).
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "op,kind,parent,start_ns,dur_ns,self_ns")?;
    for s in spans {
        writeln!(
            w,
            "{},{},{},{},{},{}",
            s.op,
            s.kind.name(),
            s.parent.map_or("", Kind::name),
            s.start_ns,
            s.dur_ns,
            s.self_ns()
        )?;
    }
    w.flush()
}

/// `core::Store` wrapper that times `put`, `get`, `scan_rows_prefix` and
/// `raw_delete`; every other call is forwarded untimed.
pub struct TimingStore {
    inner: Arc<dyn Store>,
}

impl TimingStore {
    pub fn new(inner: Arc<dyn Store>) -> Self {
        Self { inner }
    }
}

impl Store for TimingStore {
    fn put(&self, table: &str, row: &[u8], columns: &[ColumnValue]) -> ClusterResult<u64> {
        span(Kind::StorePut, || self.inner.put(table, row, columns))
    }

    fn put_batch(
        &self,
        table: &str,
        rows: &[(Bytes, Vec<ColumnValue>)],
    ) -> ClusterResult<Vec<u64>> {
        self.inner.put_batch(table, rows)
    }

    fn put_returning(
        &self,
        table: &str,
        row: &[u8],
        columns: &[ColumnValue],
    ) -> ClusterResult<PutOutcome> {
        self.inner.put_returning(table, row, columns)
    }

    fn delete(&self, table: &str, row: &[u8], columns: &[Bytes]) -> ClusterResult<u64> {
        self.inner.delete(table, row, columns)
    }

    fn raw_put(
        &self,
        table: &str,
        row: &[u8],
        columns: &[ColumnValue],
        ts: u64,
    ) -> ClusterResult<()> {
        self.inner.raw_put(table, row, columns, ts)
    }

    fn raw_delete(&self, table: &str, row: &[u8], columns: &[Bytes], ts: u64) -> ClusterResult<()> {
        span(Kind::StoreRawDelete, || {
            self.inner.raw_delete(table, row, columns, ts)
        })
    }

    fn get(
        &self,
        table: &str,
        row: &[u8],
        column: &[u8],
        ts: u64,
    ) -> ClusterResult<Option<VersionedValue>> {
        span(Kind::StoreGet, || self.inner.get(table, row, column, ts))
    }

    fn get_cell_versioned(
        &self,
        table: &str,
        row: &[u8],
        column: &[u8],
        ts: u64,
    ) -> ClusterResult<Option<(u64, bool)>> {
        self.inner.get_cell_versioned(table, row, column, ts)
    }

    fn get_row(
        &self,
        table: &str,
        row: &[u8],
        ts: u64,
    ) -> ClusterResult<Vec<(Bytes, VersionedValue)>> {
        self.inner.get_row(table, row, ts)
    }

    fn scan_rows(
        &self,
        table: &str,
        start_row: &[u8],
        end_row: Option<&[u8]>,
        ts: u64,
        limit: usize,
    ) -> ClusterResult<Vec<RowGroup>> {
        self.inner.scan_rows(table, start_row, end_row, ts, limit)
    }

    fn scan_rows_prefix(
        &self,
        table: &str,
        row_prefix: &[u8],
        ts: u64,
        limit: usize,
    ) -> ClusterResult<Vec<RowGroup>> {
        span(Kind::StoreScan, || {
            self.inner.scan_rows_prefix(table, row_prefix, ts, limit)
        })
    }

    fn scan_rows_range(
        &self,
        table: &str,
        start_row: &[u8],
        end_row: Option<&[u8]>,
        ts: u64,
        limit: usize,
    ) -> ClusterResult<Vec<RowGroup>> {
        self.inner
            .scan_rows_range(table, start_row, end_row, ts, limit)
    }

    fn create_table(&self, name: &str, num_regions: usize) -> ClusterResult<()> {
        self.inner.create_table(name, num_regions)
    }

    fn has_table(&self, table: &str) -> ClusterResult<bool> {
        self.inner.has_table(table)
    }

    fn flush_table(&self, table: &str) -> ClusterResult<()> {
        self.inner.flush_table(table)
    }

    fn admin_create_index(&self, spec: &IndexSpec, num_regions: usize) -> ClusterResult<()> {
        self.inner.admin_create_index(spec, num_regions)
    }

    fn admin_drop_index(&self, base_table: &str, name: &str) -> ClusterResult<()> {
        self.inner.admin_drop_index(base_table, name)
    }

    fn admin_quiesce(&self, base_table: &str) -> ClusterResult<()> {
        self.inner.admin_quiesce(base_table)
    }
}

/// `cluster::TableObserver` wrapper around a scheme's observer: times
/// `post_put` and the `pre_flush` → `post_flush` interval (which includes
/// the observer's AUQ drain).
pub struct TimingObserver {
    inner: Arc<dyn TableObserver>,
}

impl TimingObserver {
    pub fn new(inner: Arc<dyn TableObserver>) -> Self {
        Self { inner }
    }
}

impl TableObserver for TimingObserver {
    fn post_put(
        &self,
        cluster: &Cluster,
        table: &str,
        row: &[u8],
        columns: &[ColumnValue],
        ts: u64,
    ) -> ClusterResult<()> {
        span(Kind::PostPut, || {
            self.inner.post_put(cluster, table, row, columns, ts)
        })
    }

    fn post_delete(
        &self,
        cluster: &Cluster,
        table: &str,
        row: &[u8],
        columns: &[Bytes],
        ts: u64,
    ) -> ClusterResult<()> {
        self.inner.post_delete(cluster, table, row, columns, ts)
    }

    fn pre_flush(&self, cluster: &Cluster, table: &str) {
        if enabled() {
            open(Kind::Flush);
        }
        self.inner.pre_flush(cluster, table);
    }

    fn post_flush(&self, cluster: &Cluster, table: &str) {
        self.inner.post_flush(cluster, table);
        close(Kind::Flush);
    }

    fn post_replay(&self, cluster: &Cluster, table: &str, op: &ReplayedOp) -> ClusterResult<()> {
        self.inner.post_replay(cluster, table, op)
    }

    fn pre_recovery(&self, cluster: &Cluster, table: &str) {
        self.inner.pre_recovery(cluster, table)
    }

    fn post_recovery(&self, cluster: &Cluster, table: &str) {
        self.inner.post_recovery(cluster, table)
    }
}

/// Root-span guard for one client operation.
pub struct Root {
    kind: Option<Kind>,
}

impl Root {
    /// Open a root span of `kind` if recording is on.
    pub fn begin(kind: Kind) -> Root {
        if enabled() {
            open(kind);
            Root { kind: Some(kind) }
        } else {
            Root { kind: None }
        }
    }
}

impl Drop for Root {
    fn drop(&mut self) {
        if let Some(kind) = self.kind {
            close(kind);
        }
    }
}
