//! Self-healing over the wire: TCP liveness probes driving the master's
//! health monitor, and epoch fencing of writes stamped from before a
//! failover — the network-layer half of the §5.3 recovery story.

use bytes::Bytes;
use diff_index_cluster::{
    Cluster, ClusterOptions, ClusterError, HealthMonitor, HealthOptions, HealthState,
};
use diff_index_core::{DiffIndex, Store};
use diff_index_net::{RemoteClient, ServerGroup};

fn title_cols(v: &str) -> Vec<(Bytes, Bytes)> {
    vec![(Bytes::from("title"), Bytes::copy_from_slice(v.as_bytes()))]
}

/// The health monitor probing over real TCP (`Ping` per server) walks a
/// crashed server Healthy -> Suspect -> Dead and heals the cluster without
/// anyone calling `recover()`; a listener whose server died answers its
/// probe with `ServerDown` even though its socket still accepts — the
/// zombie's open port must not read as health.
#[test]
fn tcp_probes_detect_death_and_auto_heal() {
    let dir = tempdir_lite::TempDir::new("net-heal").unwrap();
    let cluster =
        Cluster::new(dir.path(), ClusterOptions { num_servers: 3, ..ClusterOptions::default() })
            .unwrap();
    cluster.create_table("t", 6).unwrap();
    let di = DiffIndex::new(cluster.clone());
    let group = ServerGroup::start(&di).unwrap();
    let client = RemoteClient::connect_default(group.addrs()).unwrap();

    client.put("t", b"k1", &title_cols("v1")).unwrap();
    let victim = cluster.server_for_row("t", b"k1").unwrap();

    let monitor = HealthMonitor::new(&cluster, HealthOptions::default());
    let probe_client = client.clone();
    monitor.set_probe(Box::new(move |sid| probe_client.ping_server(sid).is_ok()));
    assert!(monitor.tick().is_empty());
    assert_eq!(monitor.state_of(victim), HealthState::Healthy);

    cluster.crash_server(victim);
    // The dead server's listener still accepts TCP, but its Ping now answers
    // ServerDown — the probe must see through the open socket.
    assert!(client.ping_server(victim).is_err(), "probe of a dead server must fail");

    assert!(monitor.tick().is_empty(), "first miss: Suspect, not Dead");
    assert_eq!(monitor.state_of(victim), HealthState::Suspect);
    let dead = monitor.tick();
    assert_eq!(dead, vec![victim], "second miss declares death");
    assert_eq!(monitor.state_of(victim), HealthState::Dead);
    assert_eq!(monitor.metrics().auto_recoveries, 1, "death must trigger recovery");

    // Regions moved off the victim; the client fails over transparently.
    let new_owner = cluster.server_for_row("t", b"k1").unwrap();
    assert_ne!(new_owner, victim);
    client.put("t", b"k1", &title_cols("v2")).unwrap();
    let got = client.get("t", b"k1", b"title", u64::MAX).unwrap().unwrap();
    assert_eq!(got.value, Bytes::from("v2"));
    group.shutdown();
}

/// A write stamped with a pre-failover epoch is fenced with `StaleEpoch`
/// even when it reaches the region's *current* owner: after the region
/// bounces A -> B -> A, a client holding the original map routes to the
/// right server with the wrong epoch, and only the fence catches it. The
/// client then refreshes, re-stamps and succeeds without surfacing an
/// error.
#[test]
fn stale_epoch_stamp_is_fenced_then_client_recovers() {
    let dir = tempdir_lite::TempDir::new("net-fence").unwrap();
    let cluster =
        Cluster::new(dir.path(), ClusterOptions { num_servers: 2, ..ClusterOptions::default() })
            .unwrap();
    cluster.create_table("t", 4).unwrap();
    let di = DiffIndex::new(cluster.clone());
    let group = ServerGroup::start(&di).unwrap();
    let client = RemoteClient::connect_default(group.addrs()).unwrap();

    // Prime the client's map (owners + epochs) before any failover.
    client.put("t", b"k1", &title_cols("v1")).unwrap();
    let a = cluster.server_for_row("t", b"k1").unwrap();

    // Bounce every region off A and back: A -> B (epoch +1) -> A (epoch +1).
    cluster.crash_server(a);
    cluster.recover().unwrap();
    let b = cluster.server_for_row("t", b"k1").unwrap();
    assert_ne!(b, a);
    cluster.restart_server(a);
    cluster.crash_server(b);
    cluster.recover().unwrap();
    assert_eq!(cluster.server_for_row("t", b"k1").unwrap(), a, "region must bounce back to A");
    cluster.restart_server(b);

    // The client's cached route (A, epoch e) points at the CURRENT owner but
    // with an epoch two bumps behind: ownership policing passes, only the
    // epoch fence stands between a lost update and correctness. The retry
    // path must absorb it.
    let fenced_before = cluster.recovery_stats().fenced_writes;
    client.put("t", b"k1", &title_cols("v2")).unwrap();
    let fenced_after = cluster.recovery_stats().fenced_writes;
    assert!(
        fenced_after > fenced_before,
        "the stale-stamped first attempt must have been fenced \
         (before={fenced_before}, after={fenced_after})"
    );
    let got = client.get("t", b"k1", b"title", u64::MAX).unwrap().unwrap();
    assert_eq!(got.value, Bytes::from("v2"));
    group.shutdown();
}

/// An unstamped write (epoch 0) skips the fence: bootstrap writers and
/// epoch-unaware callers keep working across failovers, policed by
/// ownership alone.
#[test]
fn unstamped_writes_skip_the_fence() {
    let dir = tempdir_lite::TempDir::new("net-unstamped").unwrap();
    let cluster =
        Cluster::new(dir.path(), ClusterOptions { num_servers: 2, ..ClusterOptions::default() })
            .unwrap();
    cluster.create_table("t", 2).unwrap();
    let di = DiffIndex::new(cluster.clone());
    let group = ServerGroup::start(&di).unwrap();

    // Raw frame with epoch stamp 0 against the row's current owner.
    use diff_index_net::wire::{self, Request, STATUS_OK};
    use std::io::{Read, Write};
    let owner = cluster.server_for_row("t", b"k1").unwrap();
    let addr = group.servers()[owner as usize].addr();
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    conn.write_all(&Request::Put("t", b"k1", title_cols("v").into(), 0).encode(1)).unwrap();
    let mut len = [0u8; 4];
    conn.read_exact(&mut len).unwrap();
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    conn.read_exact(&mut payload).unwrap();
    let resp = wire::decode_frame(&payload).unwrap();
    assert_eq!(resp.tag, STATUS_OK, "unstamped write must pass the fence");
    assert_eq!(cluster.recovery_stats().fenced_writes, 0);

    // But a nonzero stale stamp against the same owner is rejected.
    let cur = cluster.epoch_for_row("t", b"k1").unwrap();
    conn.write_all(&Request::Put("t", b"k1", title_cols("v2").into(), cur + 7).encode(2)).unwrap();
    conn.read_exact(&mut len).unwrap();
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    conn.read_exact(&mut payload).unwrap();
    let resp = wire::decode_frame(&payload).unwrap();
    assert_eq!(resp.tag, wire::STATUS_ERR);
    let err = wire::decode_error(&resp.body);
    assert!(
        matches!(err, ClusterError::StaleEpoch { .. }),
        "mismatched stamp must be fenced, got {err}"
    );
    group.shutdown();
}
