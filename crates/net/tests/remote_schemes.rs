//! End-to-end networked runs: all four index schemes driven through
//! `RemoteClient` against a multi-listener `ServerGroup`, plus the wire
//! counterpart of Table 1's RPC cost model measured off the real dispatch
//! path.

use bytes::Bytes;
use diff_index_cluster::{Cluster, ClusterOptions};
use diff_index_core::{DiffIndex, IndexScheme, IndexSpec, Store};
use diff_index_net::{RemoteClient, ServerGroup};
use std::sync::Arc;

struct Harness {
    _dir: tempdir_lite::TempDir,
    cluster: Cluster,
    local_di: DiffIndex,
    group: ServerGroup,
    client: RemoteClient,
    remote_di: DiffIndex,
}

fn setup(scheme: IndexScheme) -> Harness {
    let dir = tempdir_lite::TempDir::new("net-schemes").unwrap();
    let cluster =
        Cluster::new(dir.path(), ClusterOptions { num_servers: 3, ..ClusterOptions::default() })
            .unwrap();
    cluster.create_table("item", 6).unwrap();
    let local_di = DiffIndex::new(cluster.clone());
    let group = ServerGroup::start(&local_di).unwrap();
    let client = RemoteClient::connect_default(group.addrs()).unwrap();
    let remote_di = DiffIndex::over_store(Arc::new(client.clone()));
    remote_di
        .create_index(IndexSpec::single("title", "item", "title", scheme), 6)
        .unwrap();
    Harness { _dir: dir, cluster, local_di, group, client, remote_di }
}

fn put_title(store: &dyn Store, row: &str, title: &str) -> u64 {
    store
        .put("item", row.as_bytes(), &[(Bytes::from("title"), Bytes::copy_from_slice(title.as_bytes()))])
        .unwrap()
}

fn rows_of(hits: &[diff_index_core::IndexHit]) -> Vec<String> {
    hits.iter().map(|h| String::from_utf8(h.row.to_vec()).unwrap()).collect()
}

#[test]
fn sync_full_is_read_consistent_over_the_wire() {
    let h = setup(IndexScheme::SyncFull);
    put_title(&h.client, "item1", "alpha");
    put_title(&h.client, "item2", "alpha");
    put_title(&h.client, "item1", "beta");
    let hits = h.remote_di.get_by_index("item", "title", b"alpha", 100).unwrap();
    assert_eq!(rows_of(&hits), vec!["item2"]);
    let hits = h.remote_di.get_by_index("item", "title", b"beta", 100).unwrap();
    assert_eq!(rows_of(&hits), vec!["item1"]);
    let report =
        diff_index_core::verify_index(&h.client, &h.local_di.index("item", "title").unwrap().spec)
            .unwrap();
    assert!(report.is_clean(), "sync-full must be clean over the wire: {report:?}");
    h.group.shutdown();
}

#[test]
fn sync_insert_read_repairs_over_the_wire() {
    let h = setup(IndexScheme::SyncInsert);
    put_title(&h.client, "item1", "old");
    put_title(&h.client, "item1", "new");
    // The stale entry for "old" exists until a read repairs it — over the
    // socket, the repair is a RawDelete issued by the client.
    let hits = h.remote_di.get_by_index("item", "title", b"old", 100).unwrap();
    assert!(hits.is_empty(), "stale hit must be filtered: {hits:?}");
    let spec = h.local_di.index("item", "title").unwrap().spec.clone();
    let report = diff_index_core::verify_index(&h.client, &spec).unwrap();
    assert!(report.is_clean(), "read repair must have cleansed the stale entry: {report:?}");
    assert_eq!(
        rows_of(&h.remote_di.get_by_index("item", "title", b"new", 100).unwrap()),
        vec!["item1"]
    );
    h.group.shutdown();
}

#[test]
fn async_simple_converges_after_remote_quiesce() {
    let h = setup(IndexScheme::AsyncSimple);
    put_title(&h.client, "item1", "eventual");
    // Quiesce travels as an admin RPC and blocks until the server-side AUQ
    // drains.
    h.remote_di.quiesce("item");
    assert_eq!(
        rows_of(&h.remote_di.get_by_index("item", "title", b"eventual", 100).unwrap()),
        vec!["item1"]
    );
    let spec = h.local_di.index("item", "title").unwrap().spec.clone();
    assert!(diff_index_core::verify_index(&h.client, &spec).unwrap().is_clean());
    h.group.shutdown();
}

#[test]
fn async_session_reads_your_writes_over_the_wire() {
    let h = setup(IndexScheme::AsyncSession);
    let session = h.remote_di.session();
    session
        .put(
            "item",
            b"item1",
            &[(Bytes::from("title"), Bytes::from("mine"))],
        )
        .unwrap();
    // No quiesce: the session must see its own write merged client-side
    // even though the server-side AUQ may not have applied it yet.
    let hits = session.get_by_index("item", "title", b"mine", 100).unwrap();
    assert_eq!(rows_of(&hits), vec!["item1"]);
    h.group.shutdown();
}

/// Table 1's RPC cost model, measured on the real dispatch path: an
/// update-put costs 3 extra region ops under sync-full (RB read + PI put +
/// DI delete), 1 under sync-insert (PI put), and 0 synchronously under
/// async (deferred to the AUQ, where the same 3 ops run later).
#[test]
fn rpcs_per_update_put_match_table_1() {
    for (scheme, sync_index_ops) in [
        (IndexScheme::SyncFull, 3),
        (IndexScheme::SyncInsert, 1),
        (IndexScheme::AsyncSimple, 0),
    ] {
        let h = setup(scheme);
        let auq = Arc::clone(h.local_di.index("item", "title").unwrap().auq());
        put_title(&h.client, "item1", "v1");
        // Settle deferred work, then stall the APS so no background op can
        // land inside the measurement window.
        h.remote_di.quiesce("item");
        auq.set_stalled(true);
        let before = h.cluster.dispatch_metrics();
        put_title(&h.client, "item1", "v2"); // value-changing update
        let stalled = h.cluster.dispatch_metrics();
        auq.set_stalled(false);
        let delta = stalled - before;
        assert_eq!(delta.puts, 1, "{scheme:?}: exactly one base put");
        assert_eq!(
            delta.index_ops(),
            sync_index_ops,
            "{scheme:?}: synchronous index ops per update put (Table 1); delta = {delta:?}"
        );
        // The deferred work exists: under async it surfaces once the AUQ
        // drains (RB + DI + PI); the sync schemes defer nothing.
        h.remote_di.quiesce("item");
        let deferred = h.cluster.dispatch_metrics() - stalled;
        let deferred_index_ops = if scheme == IndexScheme::AsyncSimple { 3 } else { 0 };
        assert_eq!(
            deferred.index_ops(),
            deferred_index_ops,
            "{scheme:?}: deferred index ops per update put; delta = {deferred:?}"
        );
        h.group.shutdown();
    }
}

/// The server counts every request per opcode with sizes and latencies.
#[test]
fn server_metrics_expose_per_opcode_traffic() {
    let h = setup(IndexScheme::SyncFull);
    put_title(&h.client, "item1", "metric");
    let _ = h.remote_di.get_by_index("item", "title", b"metric", 100).unwrap();
    // A dispatched request records its metrics only after its response is
    // written; shutdown waits for every dispatched request, so the counts
    // below are complete.
    h.group.shutdown();
    let totals: u64 = h
        .group
        .servers()
        .iter()
        .map(|s| s.metrics().requests_for(diff_index_net::OpCode::Put))
        .sum();
    assert_eq!(totals, 1, "exactly one Put request hit the wire");
    let any_scan = h
        .group
        .servers()
        .iter()
        .flat_map(|s| s.metrics().per_op)
        .any(|o| o.op == diff_index_net::OpCode::ScanRowsPrefix && o.requests > 0);
    assert!(any_scan, "index read must have issued a prefix scan over the wire");
    for snap in h.group.metrics() {
        for op in &snap.per_op {
            assert!(op.bytes_in > 0 && op.bytes_out > 0, "{op:?} recorded no bytes");
        }
    }
}
