//! Building one stack under test (cluster, tables, the scheme's observer,
//! seeded rows, and for the wire workload the loopback servers plus a
//! remote client), and the correctness gate run against it after the load.

use crate::trace::{TimingObserver, TimingStore};
use crate::{Sizes, Workload};
use bytes::Bytes;
use diff_index_cluster::{Cluster, ClusterOptions, TableObserver};
use diff_index_core::observers::{AsyncObserver, SyncFullObserver, SyncInsertObserver};
use diff_index_core::read::read_exact;
use diff_index_core::{verify_index, Auq, DiffIndex, IndexScheme, IndexSpec, Store};
use diff_index_lsm::{BlockCache, LsmOptions, Timestamp};
use diff_index_net::{RemoteClient, ServerGroup};
use diff_index_ycsb::ItemWorkload;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;

/// Base table of the paper's `item` workload.
pub const BASE: &str = "item";
/// Indexed column.
pub const TITLE: &str = "item_title";
/// Region servers in every workload.
pub const SERVERS: usize = 2;
/// Regions of the base table and of the index table.
pub const REGIONS: usize = 4;
/// The block cache every region of every table shares (the engine's
/// default size).
pub const BLOCK_CACHE_BYTES: usize = 32 << 20;
/// Price range of generated rows.
const MAX_PRICE: u64 = 1_000_000;
/// Rows per `put_batch` call while seeding.
const SEED_BATCH: u64 = 256;

/// One live stack. Dropping it shuts the servers down, drops the cluster
/// (which stops the AUQ workers) and removes its data directory.
pub struct Stack {
    /// Client-facing store: the cluster in-process, a `RemoteClient` over
    /// loopback for the wire workload; wrapped in a `TimingStore` when
    /// traced.
    pub store: Arc<dyn Store>,
    pub servers: Option<ServerGroup>,
    pub auq: Arc<Auq>,
    pub spec: Arc<IndexSpec>,
    pub wl: ItemWorkload,
    pub cluster: Cluster,
    _dir: DirGuard,
}

struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        if let Some(servers) = &self.servers {
            servers.shutdown();
        }
    }
}

fn err(what: &str) -> impl Fn(diff_index_cluster::ClusterError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Engine options: durable WAL, one 32 MiB block cache shared by every
/// region (the cluster clones these options into each region), and the
/// workload's flush policy.
///
/// Compaction keeps every version and tombstone. With the default
/// retention of 60 000 timestamp units, `update_sync_full` leaves stale
/// sync-full index entries on some seeds: the two servers' clocks tick
/// once per put and drift apart, so an index region holding entries from
/// both can see a fresh SU4 tombstone as older than the retention window
/// and drop it before a delayed SU2 put at the same timestamp lands.
pub fn lsm_options(sizes: &Sizes) -> LsmOptions {
    LsmOptions {
        wal_sync: true,
        memtable_flush_bytes: sizes.memtable_flush_bytes,
        compaction_trigger: sizes.compaction_trigger,
        version_retention: Timestamp::MAX,
        block_cache: Some(Arc::new(BlockCache::new(BLOCK_CACHE_BYTES))),
        ..LsmOptions::default()
    }
}

/// Build a stack for `w` under `dir`: tables, observer (wrapped in a
/// timing observer when `traced`), seeded rows flushed into
/// `sizes.seed_tables` SSTables per region, and the client store.
pub fn build(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    dir: PathBuf,
    traced: bool,
) -> Result<Stack, String> {
    let guard = DirGuard(dir.clone());
    let cluster = Cluster::new(
        &dir,
        ClusterOptions {
            num_servers: SERVERS,
            lsm: lsm_options(sizes),
        },
    )
    .map_err(err("cluster"))?;
    cluster
        .create_table(BASE, REGIONS)
        .map_err(err("create base table"))?;
    let spec = Arc::new(IndexSpec::single(TITLE, BASE, TITLE, w.scheme()));
    cluster
        .create_table(&spec.index_table(), REGIONS)
        .map_err(err("create index table"))?;
    let (observer, auq): (Arc<dyn TableObserver>, Arc<Auq>) = match w.scheme() {
        IndexScheme::SyncFull => {
            let o = Arc::new(SyncFullObserver::new(&cluster, Arc::clone(&spec)));
            let auq = Arc::clone(o.auq());
            (o, auq)
        }
        IndexScheme::SyncInsert => {
            let o = Arc::new(SyncInsertObserver::new(&cluster, Arc::clone(&spec)));
            let auq = Arc::clone(o.auq());
            (o, auq)
        }
        IndexScheme::AsyncSimple | IndexScheme::AsyncSession => {
            let o = Arc::new(AsyncObserver::new(&cluster, Arc::clone(&spec)));
            let auq = Arc::clone(o.auq());
            (o, auq)
        }
    };
    let observer: Arc<dyn TableObserver> = if traced {
        Arc::new(TimingObserver::new(observer))
    } else {
        observer
    };
    cluster
        .register_observer(BASE, observer)
        .map_err(err("register observer"))?;

    let wl = ItemWorkload::new(sizes.title_cardinality, MAX_PRICE, seed);
    let chunk = sizes.rows.div_ceil(sizes.seed_tables as u64);
    let mut id = 0;
    while id < sizes.rows {
        let chunk_end = (id + chunk).min(sizes.rows);
        while id < chunk_end {
            let end = (id + SEED_BATCH).min(chunk_end);
            let batch: Vec<_> = (id..end).map(|i| (wl.row_key(i), wl.row(i))).collect();
            cluster.put_batch(BASE, &batch).map_err(err("seed"))?;
            id = end;
        }
        auq.wait_idle();
        cluster.flush_all().map_err(err("seed flush"))?;
    }

    let (servers, store): (Option<ServerGroup>, Arc<dyn Store>) = if w.wire() {
        let servers = ServerGroup::start(&DiffIndex::new(cluster.clone()))
            .map_err(|e| format!("start servers: {e}"))?;
        let client = RemoteClient::connect_default(servers.addrs()).map_err(err("connect"))?;
        (Some(servers), Arc::new(client))
    } else {
        (None, Arc::new(cluster.clone()))
    };
    let store: Arc<dyn Store> = if traced {
        Arc::new(TimingStore::new(store))
    } else {
        store
    };
    Ok(Stack {
        store,
        servers,
        auq,
        spec,
        wl,
        cluster,
        _dir: guard,
    })
}

/// Bytes of the base table's SSTables under a set-up directory.
pub fn sstable_bytes(setup_dir: &std::path::Path) -> u64 {
    let Ok(regions) = std::fs::read_dir(setup_dir.join(BASE)) else {
        return 0;
    };
    regions
        .filter_map(Result::ok)
        .filter_map(|r| std::fs::read_dir(r.path()).ok())
        .flatten()
        .filter_map(Result::ok)
        .filter(|f| f.path().extension().is_some_and(|e| e == "sst"))
        .filter_map(|f| f.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// The title value `t` of the title space.
pub fn title_value(t: u64) -> Bytes {
    Bytes::from(format!("title{t:08}"))
}

/// Delete one live index entry behind the scheme's back, so the gate has
/// something to find (the gate's own self-test).
pub fn corrupt_index(stack: &Stack) -> Result<(), String> {
    let table = stack.spec.index_table();
    let rows = stack
        .cluster
        .scan_rows(&table, b"", None, u64::MAX, 1)
        .map_err(err("scan index"))?;
    let (key, cols) = rows.into_iter().next().ok_or("index is empty")?;
    let ts = cols.first().map_or(0, |(_, v)| v.ts);
    stack
        .cluster
        .raw_delete(&table, &key, &[Bytes::new()], ts)
        .map_err(err("corrupt index"))
}

/// Correctness gate, run after the load has stopped and the AUQ drained:
/// `verify_index` must find no missing entry for any scheme and no stale
/// entry for the schemes that delete old entries themselves, and exact
/// reads of sampled titles (through the client store) must return exactly
/// the base rows that carry them. Returns every breach found.
pub fn gate(stack: &Stack, seed: u64, samples: usize) -> Vec<String> {
    let mut breaches = Vec::new();
    match verify_index(&stack.cluster, &stack.spec) {
        Ok(report) => {
            if report.missing_count() > 0 {
                breaches.push(format!(
                    "verify_index: {} missing entries",
                    report.missing_count()
                ));
            }
            if report.stale_count() > 0 && stack.spec.scheme != IndexScheme::SyncInsert {
                breaches.push(format!(
                    "verify_index: {} stale entries",
                    report.stale_count()
                ));
            }
        }
        Err(e) => breaches.push(format!("verify_index: {e}")),
    }

    let rows = match stack
        .cluster
        .scan_rows(BASE, b"", None, u64::MAX, usize::MAX)
    {
        Ok(r) => r,
        Err(e) => {
            breaches.push(format!("base scan: {e}"));
            return breaches;
        }
    };
    let mut by_title: BTreeMap<Bytes, BTreeSet<Bytes>> = BTreeMap::new();
    for (row, cols) in rows {
        if let Some((_, v)) = cols.iter().find(|(c, _)| c.as_ref() == TITLE.as_bytes()) {
            by_title.entry(v.value.clone()).or_default().insert(row);
        }
    }
    let card = stack.wl.title_cardinality;
    for k in 0..samples as u64 {
        let title = title_value(diff_index_ycsb::generator::fnv1a64(seed ^ k) % card);
        let expected = by_title.get(&title).cloned().unwrap_or_default();
        match read_exact(stack.store.as_ref(), &stack.spec, &title, 1_000_000) {
            Ok(hits) => {
                let got: BTreeSet<Bytes> = hits.into_iter().map(|h| h.row).collect();
                if got != expected {
                    breaches.push(format!(
                        "read of {:?}: {} rows returned, {} expected",
                        String::from_utf8_lossy(&title),
                        got.len(),
                        expected.len()
                    ));
                }
            }
            Err(e) => breaches.push(format!("read check: {e}")),
        }
    }
    breaches
}
