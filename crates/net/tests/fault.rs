//! Failure-path tests for the network layer: ambiguous-ack retries after a
//! killed connection, stale partition-map recovery, pipelined out-of-order
//! responses, and drain-before-stop shutdown.

use bytes::Bytes;
use diff_index_cluster::{Cluster, ClusterOptions, FaultPoint};
use diff_index_core::{DiffIndex, IndexScheme, IndexSpec, Store};
use diff_index_net::wire::{self, OpCode, Request, STATUS_OK};
use diff_index_net::{RemoteClient, ServerGroup};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn title_cols(v: &str) -> Vec<(Bytes, Bytes)> {
    vec![(Bytes::from("title"), Bytes::copy_from_slice(v.as_bytes()))]
}

/// A connection dies after the server applied a `put_batch` but before the
/// client heard back. The client's bounded retry re-sends the batch; that
/// must be harmless: every acked row present with its final value, and the
/// index free of duplicates or stragglers (§4.3 idempotency — the index
/// entry key is a function of value and row, and SU3 skips the delete when
/// old == new).
#[test]
fn retry_after_killed_connection_is_idempotent() {
    let dir = tempdir_lite::TempDir::new("net-fault").unwrap();
    let cluster =
        Cluster::new(dir.path(), ClusterOptions { num_servers: 3, ..ClusterOptions::default() })
            .unwrap();
    cluster.create_table("item", 6).unwrap();
    let di = DiffIndex::new(cluster.clone());
    let group = ServerGroup::start(&di).unwrap();
    let client = RemoteClient::connect_default(group.addrs()).unwrap();
    let remote_di = DiffIndex::over_store(Arc::new(client.clone()));
    let spec = remote_di
        .create_index(IndexSpec::single("title", "item", "title", IndexScheme::SyncFull), 6)
        .unwrap()
        .spec
        .clone();

    let rows: Vec<(Bytes, Vec<(Bytes, Bytes)>)> = (0..12)
        .map(|i| (Bytes::from(format!("row{i:02}")), title_cols(&format!("first{i}"))))
        .collect();
    let stamps = client.put_batch("item", &rows).unwrap();
    assert_eq!(stamps.len(), 12);

    // Arm the fault on every server: the next completed request per server
    // executes, then its connection is destroyed instead of responding.
    for sid in 0..3 {
        cluster.faults().arm(FaultPoint::DropResponse(sid), 1);
    }
    let update: Vec<(Bytes, Vec<(Bytes, Bytes)>)> = (0..12)
        .map(|i| (Bytes::from(format!("row{i:02}")), title_cols(&format!("second{i}"))))
        .collect();
    let stamps = client.put_batch("item", &update).unwrap();
    assert_eq!(stamps.len(), 12);
    assert!(stamps.iter().all(|&t| t > 0), "every row must be acked: {stamps:?}");

    // Every acked row visible with its final value, through a fresh read.
    for i in 0..12 {
        let got = client
            .get("item", format!("row{i:02}").as_bytes(), b"title", u64::MAX)
            .unwrap()
            .expect("acked row must be present");
        assert_eq!(got.value, Bytes::from(format!("second{i}")));
    }
    // No duplicate or stale index entries despite the replays.
    let report = diff_index_core::verify_index(&client, &spec).unwrap();
    assert!(report.is_clean(), "index must be clean after ambiguous-ack retries: {report:?}");
    let hits = remote_di.get_by_index("item", "title", b"first3", 100).unwrap();
    assert!(hits.is_empty(), "old entries must be gone: {hits:?}");
    group.shutdown();
}

/// A region moves between requests (server crash + master recovery). The
/// client's cached partition map still points at the old owner, which now
/// answers `NotServing`; the client must refetch the map and re-route
/// without surfacing an error.
#[test]
fn stale_partition_map_is_refreshed_on_not_serving() {
    let dir = tempdir_lite::TempDir::new("net-stale").unwrap();
    let cluster =
        Cluster::new(dir.path(), ClusterOptions { num_servers: 3, ..ClusterOptions::default() })
            .unwrap();
    cluster.create_table("t", 6).unwrap();
    let di = DiffIndex::new(cluster.clone());
    let group = ServerGroup::start(&di).unwrap();
    let client = RemoteClient::connect_default(group.addrs()).unwrap();

    // Prime the client's partition-map cache.
    client.put("t", b"k1", &title_cols("v1")).unwrap();
    let old_owner = cluster.server_for_row("t", b"k1").unwrap();

    // Move the region: crash its host, let the master reassign.
    cluster.crash_server(old_owner);
    cluster.recover().unwrap();
    let new_owner = cluster.server_for_row("t", b"k1").unwrap();
    assert_ne!(new_owner, old_owner, "recovery must have moved the region");

    // The cached map is now stale; the put must still succeed transparently.
    client.put("t", b"k1", &title_cols("v2")).unwrap();
    let got = client.get("t", b"k1", b"title", u64::MAX).unwrap().unwrap();
    assert_eq!(got.value, Bytes::from("v2"));
    group.shutdown();
}

/// A Put request frame. Epoch stamp 0 = unstamped: these raw-frame tests
/// exercise framing and ownership, not fencing.
fn put_frame(table: &str, row: &[u8], val: &str, request_id: u64) -> Bytes {
    Request::Put(table, row, title_cols(val).into(), 0).encode(request_id)
}

fn read_response(conn: &mut TcpStream) -> Option<wire::Frame> {
    let mut len_buf = [0u8; 4];
    let mut read = 0;
    while read < 4 {
        match conn.read(&mut len_buf[read..]) {
            Ok(0) => return None,
            Ok(n) => read += n,
            Err(_) => return None,
        }
    }
    let len = wire::check_frame_len(u32::from_le_bytes(len_buf)).ok()?;
    let mut payload = vec![0u8; len];
    let mut read = 0;
    while read < len {
        match conn.read(&mut payload[read..]) {
            Ok(0) => return None,
            Ok(n) => read += n,
            Err(_) => return None,
        }
    }
    wire::decode_frame(&payload).ok()
}

/// A single connection carries many requests in flight: write every frame
/// before reading any response, then collect all responses (order free,
/// matched by request id).
#[test]
fn pipelined_requests_all_complete() {
    let dir = tempdir_lite::TempDir::new("net-pipe").unwrap();
    let cluster = Cluster::new(dir.path(), ClusterOptions::default()).unwrap();
    cluster.create_table("t", 4).unwrap();
    let di = DiffIndex::new(cluster.clone());
    let group = ServerGroup::start(&di).unwrap();
    let addr = group.addrs()[0].clone();

    let mut conn = TcpStream::connect(&addr).unwrap();
    const N: u64 = 24;
    for id in 1..=N {
        conn.write_all(&put_frame("t", format!("p{id:02}").as_bytes(), &format!("v{id}"), id))
            .unwrap();
    }
    let mut seen = std::collections::HashSet::new();
    for _ in 0..N {
        let resp = read_response(&mut conn).expect("response for every pipelined request");
        assert_eq!(resp.tag, STATUS_OK, "pipelined put failed");
        assert!(seen.insert(resp.request_id), "duplicate response id {}", resp.request_id);
    }
    assert_eq!(seen.len() as u64, N);
    for id in 1..=N {
        let got = cluster.get("t", format!("p{id:02}").as_bytes(), b"title", u64::MAX).unwrap();
        assert_eq!(got.unwrap().value, Bytes::from(format!("v{id}")));
    }
    group.shutdown();
}

/// Graceful-shutdown ordering: `shutdown()` must drain dispatched requests
/// (their responses written) before returning, and only then does the test
/// stop AUQ workers — so an acknowledged write can never be lost, and an
/// unacknowledged one may simply have never happened. No third state.
#[test]
fn shutdown_drains_before_auq_teardown() {
    let dir = tempdir_lite::TempDir::new("net-drain").unwrap();
    let cluster = Cluster::new(dir.path(), ClusterOptions::default()).unwrap();
    cluster.create_table("item", 4).unwrap();
    let di = DiffIndex::new(cluster.clone());
    let handle = di
        .create_index(IndexSpec::single("title", "item", "title", IndexScheme::AsyncSimple), 4)
        .unwrap();
    let group = ServerGroup::start(&di).unwrap();
    let addr = group.addrs()[0].clone();

    // Flood one connection with pipelined puts and shut the server down
    // while they are in flight.
    let mut conn = TcpStream::connect(&addr).unwrap();
    const N: u64 = 48;
    for id in 1..=N {
        conn.write_all(&put_frame("item", format!("d{id:02}").as_bytes(), &format!("v{id}"), id))
            .unwrap();
    }
    let reader = std::thread::spawn(move || {
        let mut acked = Vec::new();
        while let Some(resp) = read_response(&mut conn) {
            if resp.tag == STATUS_OK {
                acked.push(resp.request_id);
            }
        }
        acked
    });
    // Shutdown races the pipelined burst: some frames may never be read,
    // but whatever was dispatched must be answered before this returns.
    group.shutdown();
    let acked = reader.join().unwrap();

    // ONLY now stop index maintenance, mirroring the required teardown
    // order (listener drain -> AUQ -> cluster).
    di.quiesce("item");

    for id in &acked {
        let got = cluster.get("item", format!("d{id:02}").as_bytes(), b"title", u64::MAX).unwrap();
        assert!(got.is_some(), "acked write d{id:02} lost after graceful shutdown");
        assert_eq!(got.unwrap().value, Bytes::from(format!("v{id}")));
    }
    // And the index reflects exactly the applied base rows.
    let report = diff_index_core::verify_index(di.store().as_ref(), &handle.spec).unwrap();
    assert!(report.is_clean(), "index diverged across shutdown: {report:?}");

    // The server really is down for new work.
    assert!(TcpStream::connect(&addr).map(|mut c| {
        let _ = c.write_all(&put_frame("item", b"late", "nope", 1));
        read_response(&mut c).is_none()
    }).unwrap_or(true));
}

/// Malformed bytes on the wire surface as a Protocol error response (when
/// the header is readable) and never take the server down.
#[test]
fn malformed_frames_get_protocol_errors() {
    let dir = tempdir_lite::TempDir::new("net-mal").unwrap();
    let cluster = Cluster::new(dir.path(), ClusterOptions::default()).unwrap();
    cluster.create_table("t", 2).unwrap();
    let di = DiffIndex::new(cluster.clone());
    let group = ServerGroup::start(&di).unwrap();
    let addr = group.addrs()[0].clone();

    // Unknown opcode: error response, connection stays usable.
    let mut conn = TcpStream::connect(&addr).unwrap();
    conn.write_all(&wire::encode_frame(0xEE, 7, b"")).unwrap();
    let resp = read_response(&mut conn).unwrap();
    assert_eq!(resp.tag, wire::STATUS_ERR);
    assert_eq!(resp.request_id, 7);
    // Same connection still serves a valid request afterwards.
    conn.write_all(&put_frame("t", b"r", "ok", 8)).unwrap();
    let resp = read_response(&mut conn).unwrap();
    assert_eq!(resp.tag, STATUS_OK);

    // Truncated body (a Put cut after its table name): the decoder rejects
    // it without panicking.
    let mut conn2 = TcpStream::connect(&addr).unwrap();
    conn2.write_all(&wire::encode_frame(OpCode::Put as u8, 9, b"\x01\x00\x00\x00t")).unwrap();
    let resp = read_response(&mut conn2).unwrap();
    assert_eq!(resp.tag, wire::STATUS_ERR);
    let err = wire::decode_error(&resp.body);
    assert!(matches!(err, diff_index_cluster::ClusterError::Protocol(_)), "got {err}");

    // The server survived all of it.
    let client = RemoteClient::connect_default(group.addrs()).unwrap();
    client.ping().unwrap();
    group.shutdown();
}
