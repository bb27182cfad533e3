//! Per-opcode network metrics for a [`crate::Server`]: request counts,
//! bytes in/out, and service-latency percentiles.
//!
//! These are the observable counterpart of the paper's RPC cost model
//! (Table 1): with a real dispatch path, "how many RPCs does a sync-full
//! put cost" is measured off the wire rather than hand-maintained.

use crate::wire::OpCode;
use diff_index_ycsb::Histogram;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Live metrics, updated by connection handlers. Counters are atomics so
/// the hot path never serializes on the histogram lock for the cheap part.
pub struct NetMetrics {
    per_op: [OpSlot; OP_SLOTS],
}

impl Default for NetMetrics {
    fn default() -> Self {
        Self { per_op: std::array::from_fn(|_| OpSlot::default()) }
    }
}

/// One slot per opcode byte, up to the highest defined opcode.
const OP_SLOTS: usize = {
    let (ops, mut i, mut slots) = (OpCode::all(), 0, 0);
    while i < ops.len() {
        slots = if ops[i] as usize >= slots { ops[i] as usize + 1 } else { slots };
        i += 1;
    }
    slots
};

#[derive(Default)]
struct OpSlot {
    requests: AtomicU64,
    errors: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    latency: Mutex<Option<Box<Histogram>>>,
}

/// Frozen per-opcode metrics.
#[derive(Debug, Clone)]
pub struct OpMetricsSnapshot {
    /// Opcode these numbers describe.
    pub op: OpCode,
    /// Requests served (including ones that returned an error response).
    pub requests: u64,
    /// Requests answered with an error response.
    pub errors: u64,
    /// Request-frame bytes received (length prefix included).
    pub bytes_in: u64,
    /// Response-frame bytes sent (length prefix included).
    pub bytes_out: u64,
    /// Median service latency in microseconds (decode → response written).
    pub p50_us: u64,
    /// 99th-percentile service latency in microseconds.
    pub p99_us: u64,
}

/// Frozen view of a server's network metrics.
#[derive(Debug, Clone, Default)]
pub struct NetMetricsSnapshot {
    /// Per-opcode rows, only for opcodes that served at least one request.
    pub per_op: Vec<OpMetricsSnapshot>,
}

impl NetMetricsSnapshot {
    /// Total requests across all opcodes.
    pub fn total_requests(&self) -> u64 {
        self.per_op.iter().map(|o| o.requests).sum()
    }

    /// Total bytes received across all opcodes.
    pub fn total_bytes_in(&self) -> u64 {
        self.per_op.iter().map(|o| o.bytes_in).sum()
    }

    /// Total bytes sent across all opcodes.
    pub fn total_bytes_out(&self) -> u64 {
        self.per_op.iter().map(|o| o.bytes_out).sum()
    }

    /// Requests for one opcode (0 if it never ran).
    pub fn requests_for(&self, op: OpCode) -> u64 {
        self.per_op.iter().find(|o| o.op == op).map_or(0, |o| o.requests)
    }
}

impl NetMetrics {
    /// Record one served request.
    pub fn record(&self, op: OpCode, bytes_in: u64, bytes_out: u64, latency_us: u64, err: bool) {
        let slot = &self.per_op[op as u8 as usize];
        slot.requests.fetch_add(1, Ordering::Relaxed);
        if err {
            slot.errors.fetch_add(1, Ordering::Relaxed);
        }
        slot.bytes_in.fetch_add(bytes_in, Ordering::Relaxed);
        slot.bytes_out.fetch_add(bytes_out, Ordering::Relaxed);
        let mut h = slot.latency.lock();
        h.get_or_insert_with(|| Box::new(Histogram::new())).record(latency_us);
    }

    /// Snapshot every opcode that served at least one request.
    pub fn snapshot(&self) -> NetMetricsSnapshot {
        let mut per_op = Vec::new();
        for &op in OpCode::all() {
            let slot = &self.per_op[op as u8 as usize];
            let requests = slot.requests.load(Ordering::Relaxed);
            if requests == 0 {
                continue;
            }
            let (p50_us, p99_us) = {
                let h = slot.latency.lock();
                match h.as_deref() {
                    Some(h) => (h.percentile(50.0), h.percentile(99.0)),
                    None => (0, 0),
                }
            };
            per_op.push(OpMetricsSnapshot {
                op,
                requests,
                errors: slot.errors.load(Ordering::Relaxed),
                bytes_in: slot.bytes_in.load(Ordering::Relaxed),
                bytes_out: slot.bytes_out.load(Ordering::Relaxed),
                p50_us,
                p99_us,
            });
        }
        NetMetricsSnapshot { per_op }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_aggregate_per_opcode() {
        let m = NetMetrics::default();
        m.record(OpCode::Put, 100, 20, 500, false);
        m.record(OpCode::Put, 100, 20, 700, true);
        m.record(OpCode::Get, 40, 60, 90, false);
        let s = m.snapshot();
        assert_eq!(s.total_requests(), 3);
        assert_eq!(s.requests_for(OpCode::Put), 2);
        assert_eq!(s.requests_for(OpCode::Quiesce), 0);
        let put = s.per_op.iter().find(|o| o.op == OpCode::Put).unwrap();
        assert_eq!(put.errors, 1);
        assert_eq!(put.bytes_in, 200);
        assert_eq!(put.bytes_out, 40);
        assert!(put.p50_us >= 400 && put.p99_us >= put.p50_us);
        assert_eq!(s.total_bytes_in(), 240);
        assert_eq!(s.total_bytes_out(), 100);
    }
}
