//! Workspace-level integration tests: the real storage stack, the workload
//! generator and the simulator agreeing with each other and with the
//! paper's analytic model.

use bytes::Bytes;
use diff_index::cluster::{Cluster, ClusterOptions};
use diff_index::core::{update_cost, DiffIndex, IndexScheme, IndexSpec};
use diff_index::lsm::{LsmOptions, TableOptions};
use diff_index::sim::{update_op, SimConfig};
use diff_index::ycsb::{DriverConfig, ItemWorkload, OpMix, Target};
use tempdir_lite::TempDir;

fn small_lsm() -> LsmOptions {
    LsmOptions {
        memtable_flush_bytes: 64 * 1024,
        table: TableOptions { block_size: 1024, bloom_bits_per_key: 10 },
        compaction_trigger: 4,
        version_retention: u64::MAX,
        ..LsmOptions::default()
    }
}

/// The YCSB driver running the paper's item workload against the real
/// Diff-Index stack.
struct RealTarget {
    di: DiffIndex,
}

impl Target for RealTarget {
    fn update(&self, row: &Bytes, columns: &[(Bytes, Bytes)]) {
        self.di.cluster().put("item", row, columns).unwrap();
    }
    fn read_index(&self, title: &Bytes) -> usize {
        self.di.get_by_index("item", "title", title, 1000).unwrap().len()
    }
}

#[test]
fn ycsb_driver_runs_item_workload_on_every_scheme() {
    for scheme in IndexScheme::all() {
        let dir = TempDir::new("e2e").unwrap();
        let cluster =
            Cluster::new(dir.path(), ClusterOptions { num_servers: 2, lsm: small_lsm() }).unwrap();
        cluster.create_table("item", 4).unwrap();
        let di = DiffIndex::new(cluster.clone());
        di.create_index(IndexSpec::single("title", "item", "item_title", scheme), 4).unwrap();

        let wl = ItemWorkload::new(20, 1_000_000, 7);
        let target = RealTarget { di: di.clone() };
        let report = diff_index::ycsb::run(
            &target,
            &wl,
            &DriverConfig {
                threads: 4,
                ops_per_thread: 100,
                mix: OpMix { update_fraction: 0.7 },
                key_space: 200,
                zipfian: true,
                seed: 11,
            },
        );
        assert_eq!(report.ops, 400, "scheme {scheme}");
        assert!(report.tps() > 0.0);
        assert!(report.update_hist.count() > 0);
        // After quiescing, every item's current title is indexed.
        di.quiesce("item");
        let rows = cluster.scan_rows("item", b"", None, u64::MAX, usize::MAX).unwrap();
        for (row, cols) in rows.iter().take(50) {
            let Some((_, title)) = cols.iter().find(|(c, _)| c.as_ref() == b"item_title") else {
                continue;
            };
            let hits = di.get_by_index("item", "title", &title.value, 10_000).unwrap();
            assert!(
                hits.iter().any(|h| h.row == *row),
                "scheme {scheme}: row {row:?} missing from index"
            );
        }
    }
}

#[test]
fn simulator_op_templates_agree_with_analytic_table2() {
    // The simulator's step expansion and core's analytic Table 2 must agree
    // on how much *synchronous* work each scheme does.
    for scheme in [None, Some(IndexScheme::SyncFull), Some(IndexScheme::SyncInsert), Some(IndexScheme::AsyncSimple)] {
        let template = update_op(scheme);
        let cost = update_cost(scheme);
        assert_eq!(
            template.sync_steps.len() as u32,
            cost.synchronous_ops(),
            "sync step count vs Table 2 for {scheme:?}"
        );
        let total = template.sync_steps.len() + template.background_steps.len();
        assert_eq!(total as u32, cost.total_ops(), "total ops for {scheme:?}");
    }
}

/// One cluster with the `item` table and, unless `scheme` is `None`, a
/// title index under `scheme`; 200 rows seeded and their index settled, so
/// every later put is an update with an old entry.
struct SchemeStack {
    scheme: Option<IndexScheme>,
    cluster: Cluster,
    di: DiffIndex,
    _dir: TempDir,
}

impl SchemeStack {
    const ROWS: u64 = 200;

    fn new(scheme: Option<IndexScheme>) -> Self {
        let dir = TempDir::new("e2e-ord").unwrap();
        let cluster = Cluster::new(dir.path(), ClusterOptions { num_servers: 1, lsm: small_lsm() })
            .unwrap();
        cluster.create_table("item", 2).unwrap();
        let di = DiffIndex::new(cluster.clone());
        if let Some(s) = scheme {
            di.create_index(IndexSpec::single("title", "item", "item_title", s), 2).unwrap();
        }
        let stack = Self { scheme, cluster, di, _dir: dir };
        for i in 0..Self::ROWS {
            stack.update(i, &format!("seed{i}"));
        }
        stack.di.quiesce("item");
        stack
    }

    fn update(&self, i: u64, title: &str) {
        let row = format!("item{:03}", i % Self::ROWS);
        let title = (Bytes::from_static(b"item_title"), Bytes::from(title.to_string()));
        self.cluster.put("item", row.as_bytes(), &[title]).unwrap();
    }

    /// Hold or release the APS of the stack's index, if it has one.
    fn stall_aps(&self, stalled: bool) {
        for h in self.di.indexes_of("item") {
            h.auq().set_stalled(stalled);
        }
    }
}

#[test]
fn real_stack_latency_ordering_matches_simulator_prediction() {
    // The ordering the simulator and Equations 1-2 predict for an update:
    // null <= async < insert < full. Checked twice on the REAL stack: as
    // Table 2's region-op counts, exactly, and as client latency.
    let stacks: Vec<SchemeStack> = [
        None,
        Some(IndexScheme::AsyncSimple),
        Some(IndexScheme::SyncInsert),
        Some(IndexScheme::SyncFull),
    ]
    .into_iter()
    .map(SchemeStack::new)
    .collect();

    // Op counts from the dispatch counters. With the APS held, the index
    // ops a put dispatches before it returns are its synchronous ones;
    // once the APS has drained, the background ones are in too.
    const COUNTED: u64 = 20;
    let mut sync_ops = Vec::new();
    for st in &stacks {
        st.stall_aps(true);
        let before = st.cluster.dispatch_metrics();
        for i in 0..COUNTED {
            st.update(i, &format!("counted{i}"));
        }
        let sync = st.cluster.dispatch_metrics() - before;
        st.stall_aps(false);
        st.di.quiesce("item");
        let all = st.cluster.dispatch_metrics() - before;
        let cost = update_cost(st.scheme);
        assert_eq!(sync.puts, COUNTED);
        // Table 2 counts the base put itself; the dispatch counters keep it
        // apart from the index ops.
        let scheme = st.scheme;
        assert_eq!(sync.index_ops(), COUNTED * u64::from(cost.synchronous_ops() - 1), "{scheme:?}");
        assert_eq!(all.index_ops(), COUNTED * u64::from(cost.total_ops() - 1), "{scheme:?}");
        sync_ops.push(sync.index_ops());
    }
    let (null, asy, insert, full) = (sync_ops[0], sync_ops[1], sync_ops[2], sync_ops[3]);
    assert!(null <= asy && asy < insert && insert < full, "sync ops {sync_ops:?}");

    // Latency: the four schemes take turns, in a rotating order, over
    // several rounds, so a slow stretch of the shared machine lands on
    // every scheme alike. Each put is timed on its own, and each scheme's
    // median over all its puts is compared: a flush or a descheduled
    // thread moves a mean, not a median. The APS is held, as above, so
    // async's background index work does not run on the shared cores
    // while any scheme's put is timed: what is timed is each scheme's
    // client path.
    const ROUNDS: u64 = 8;
    const OPS: u64 = 50;
    let mut lat: Vec<Vec<u128>> = vec![Vec::new(); stacks.len()];
    stacks.iter().for_each(|st| st.stall_aps(true));
    for round in 0..ROUNDS {
        for k in 0..stacks.len() {
            let s = (round as usize + k) % stacks.len();
            for i in 0..OPS {
                let t0 = std::time::Instant::now();
                stacks[s].update(round * OPS + i, &format!("v{round}-{i}"));
                lat[s].push(t0.elapsed().as_nanos());
            }
        }
    }
    stacks.iter().for_each(|st| st.stall_aps(false));
    let medians: Vec<u128> = lat
        .iter_mut()
        .map(|l| {
            l.sort_unstable();
            l[l.len() / 2]
        })
        .collect();
    let (null, asy, insert, full) = (medians[0], medians[1], medians[2], medians[3]);
    // async's client path adds just an enqueue, sync-insert's one index
    // write and sync-full's three index ops.
    assert!(asy < full, "async {asy} ns must be cheaper than full {full} ns");
    assert!(asy < insert, "async {asy} ns must be cheaper than insert {insert} ns");
    assert!(insert < full, "insert {insert} ns must be cheaper than full {full} ns");
    assert!(null < full, "null {null} ns must be cheapest vs full {full} ns");
}

#[test]
fn simulated_cluster_and_real_cluster_share_scheme_semantics() {
    // Sanity link between the two worlds: the scheme the simulator labels
    // fastest-update / slowest-read must actually be the one whose REAL
    // index is stale before quiesce (async), and the slowest-update scheme
    // must have an immediately consistent REAL index (sync-full).
    let cfg = SimConfig::in_house();
    let lat = |s| update_op(Some(s)).sync_steps.iter()
        .map(|st: &diff_index::sim::Step| st.service(&cfg) + st.extra_latency(&cfg))
        .sum::<u64>();
    assert!(lat(IndexScheme::AsyncSimple) < lat(IndexScheme::SyncFull));

    let dir = TempDir::new("e2e-link").unwrap();
    let cluster =
        Cluster::new(dir.path(), ClusterOptions { num_servers: 1, lsm: small_lsm() }).unwrap();
    cluster.create_table("item", 2).unwrap();
    let di = DiffIndex::new(cluster.clone());
    di.create_index(IndexSpec::single("full", "item", "a", IndexScheme::SyncFull), 2).unwrap();
    di.create_index(IndexSpec::single("async", "item", "b", IndexScheme::AsyncSimple), 2)
        .unwrap();
    let handle = di.index("item", "async").unwrap();
    cluster
        .put(
            "item",
            b"r1",
            &[
                (Bytes::from_static(b"a"), Bytes::from_static(b"va")),
                (Bytes::from_static(b"b"), Bytes::from_static(b"vb")),
            ],
        )
        .unwrap();
    // sync-full: immediately visible, guaranteed (causal consistency).
    assert_eq!(di.get_by_index("item", "full", b"va", 10).unwrap().len(), 1);
    // async: work went through the AUQ; eventually visible.
    assert_eq!(
        handle.auq().metrics().enqueued.load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    di.quiesce("item");
    assert_eq!(di.get_by_index("item", "async", b"vb", 10).unwrap().len(), 1);
}
