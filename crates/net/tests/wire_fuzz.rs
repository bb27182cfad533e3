//! Wire-protocol robustness: a server fed garbage, truncated, or corrupted
//! frames must reply with a protocol error or close the connection — never
//! panic, never wedge — and must keep serving well-formed clients on fresh
//! connections throughout.

use bytes::Bytes;
use diff_index_cluster::{Cluster, ClusterOptions};
use diff_index_core::{DiffIndex, Store};
use diff_index_net::wire::{self, OpCode, Request, STATUS_OK};
use diff_index_net::{RemoteClient, ServerGroup};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Tiny deterministic generator (SplitMix64) so a failure reproduces.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn start_server() -> (tempdir_lite::TempDir, ServerGroup, String) {
    let dir = tempdir_lite::TempDir::new("wire-fuzz").unwrap();
    let cluster =
        Cluster::new(dir.path(), ClusterOptions { num_servers: 1, ..ClusterOptions::default() })
            .unwrap();
    cluster.create_table("item", 2).unwrap();
    let di = DiffIndex::new(cluster);
    let group = ServerGroup::start(&di).unwrap();
    let addr = group.addrs()[0].clone();
    (dir, group, addr)
}

fn connect(addr: &str) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    // If the server wedges, fail the test instead of hanging it.
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

/// Send raw bytes, then drain whatever comes back until the server responds
/// or closes. The only unacceptable outcome is a read timeout (wedged
/// connection that neither answers nor closes).
fn send_and_drain(addr: &str, payload: &[u8]) {
    let mut s = connect(addr);
    if s.write_all(payload).is_err() {
        return; // server already closed on us: fine
    }
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut buf = [0u8; 4096];
    loop {
        match s.read(&mut buf) {
            Ok(0) => return, // clean close
            Ok(_) => continue, // error frame(s); keep draining
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                panic!("server wedged: no response and no close within timeout")
            }
            Err(_) => return, // reset: also a close
        }
    }
}

/// Send one well-formed request frame on a fresh connection and assert the
/// server answers it with `STATUS_OK` under the same request id.
fn assert_answered_ok(addr: &str, frame: &[u8], request_id: u64) {
    let mut s = connect(addr);
    s.write_all(frame).unwrap();
    let mut len = [0u8; 4];
    s.read_exact(&mut len).expect("server must answer a well-formed request");
    let n = wire::check_frame_len(u32::from_le_bytes(len)).unwrap();
    let mut payload = vec![0u8; n];
    s.read_exact(&mut payload).unwrap();
    let f = wire::decode_frame(&payload).unwrap();
    assert_eq!(f.tag, STATUS_OK, "error response: {}", wire::decode_error(&f.body));
    assert_eq!(f.request_id, request_id);
}

/// A fresh, well-formed connection must still get a Ping response.
fn assert_still_serving(addr: &str) {
    assert_answered_ok(addr, &Request::Ping.encode(7), 7);
}

/// A Put request frame the server accepts, used as the corruption victim.
fn valid_put_frame() -> Vec<u8> {
    let cols = [(Bytes::from("title"), Bytes::from("value"))];
    Request::Put("item", b"row1", cols[..].into(), 0).encode(99).to_vec()
}

#[test]
fn garbage_frames_never_panic_or_wedge_the_server() {
    let (_d, group, addr) = start_server();
    let mut rng = Rng(0xD1FF_1DE5);

    // 1. Pure random garbage of varied sizes.
    for _ in 0..40 {
        let n = rng.below(200) as usize + 1;
        let garbage: Vec<u8> = (0..n).map(|_| rng.next() as u8).collect();
        send_and_drain(&addr, &garbage);
    }
    assert_still_serving(&addr);

    // 2. Hostile length prefixes: zero, below-header, just-over-cap, max.
    for len in [0u32, 1, 9, wire::MAX_FRAME + 1, u32::MAX] {
        let mut payload = len.to_le_bytes().to_vec();
        payload.extend_from_slice(&[0u8; 16]);
        send_and_drain(&addr, &payload);
    }
    assert_still_serving(&addr);

    // 3. Truncations of a valid frame at every boundary that matters, plus
    //    random cut points. Uncorrupted, the frame is accepted.
    let frame = valid_put_frame();
    assert_answered_ok(&addr, &frame, 99);
    for cut in [1usize, 3, 4, 5, 6, 13, frame.len() - 1] {
        send_and_drain(&addr, &frame[..cut]);
    }
    for _ in 0..20 {
        let cut = rng.below(frame.len() as u64) as usize;
        send_and_drain(&addr, &frame[..cut]);
    }
    assert_still_serving(&addr);

    // 4. Single-byte corruptions of a valid frame. Flipping a byte in the
    //    length prefix may declare a longer frame than we send — the server
    //    must treat the short read as a close, not block forever.
    for _ in 0..60 {
        let mut f = frame.clone();
        let pos = rng.below(f.len() as u64) as usize;
        f[pos] ^= (rng.below(255) + 1) as u8;
        send_and_drain(&addr, &f);
    }
    assert_still_serving(&addr);

    // 5. Unknown opcodes and known opcodes with garbage bodies: the server
    //    answers with an error frame and keeps the connection alive, so one
    //    connection can take several in a row.
    {
        let mut s = connect(&addr);
        for (i, tag) in [0x00u8, 0x77, 0xFF, OpCode::Put as u8, OpCode::ScanRows as u8]
            .into_iter()
            .enumerate()
        {
            let body: Vec<u8> = (0..rng.below(40)).map(|_| rng.next() as u8).collect();
            let f = wire::encode_frame(tag, i as u64, &body);
            if s.write_all(&f).is_err() {
                s = connect(&addr); // server closed (decode error path): reconnect
                continue;
            }
            let mut len = [0u8; 4];
            match s.read_exact(&mut len) {
                Ok(()) => {
                    let n = wire::check_frame_len(u32::from_le_bytes(len)).unwrap();
                    let mut payload = vec![0u8; n];
                    s.read_exact(&mut payload).unwrap();
                    let rf = wire::decode_frame(&payload).unwrap();
                    assert_eq!(rf.request_id, i as u64);
                }
                Err(_) => s = connect(&addr),
            }
        }
    }
    assert_still_serving(&addr);

    // 6. After all the abuse, a real client session works end to end.
    let client = RemoteClient::connect_default(vec![addr.clone()]).unwrap();
    client.put("item", b"row1", &[(Bytes::from("title"), Bytes::from("v"))]).unwrap();
    let got = client.get("item", b"row1", b"title", u64::MAX).unwrap().unwrap();
    assert_eq!(&got.value[..], b"v");

    group.shutdown();
}
