//! Routing: table lookup, key → region resolution with per-op dispatch
//! counting, partition snapshots for client-side routing, and the
//! ownership and fencing-epoch checks region servers apply.

use super::{Cluster, Region, TableState};
use crate::clock::TimestampOracle;
use crate::encoding::row_start;
use crate::error::{ClusterError, Result};
use crate::keyspace::{RegionId, ServerId};
use bytes::Bytes;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

diff_index_lsm::counters! {
    /// Region-level operations issued, one counter per op kind, bumped
    /// where each operation is routed — each would be a network RPC to a
    /// region server in the real deployment, so these measure RPC cost
    /// instead of asserting it.
    pub(super) struct Dispatches;
    /// Per-operation counts of region-level dispatches, derived from the real
    /// routing path (not hand-maintained). Take a delta around an operation to
    /// see its RPC decomposition — e.g. one sync-full update put shows as
    /// 1 put + 1 get (the `RB(k, t−δ)` read-back) + 1 raw put + 1 raw delete,
    /// matching Table 1's 3-RPC index-maintenance cost.
    pub struct DispatchSnapshot {
        /// Client puts (timestamped by the server, observers dispatched).
        puts,
        /// Client deletes.
        deletes,
        /// Index-maintenance puts at an explicit timestamp.
        raw_puts,
        /// Index-maintenance deletes at an explicit timestamp.
        raw_deletes,
        /// Point reads (versioned cell reads included).
        gets,
        /// Whole-row reads.
        get_rows,
        /// Per-region legs of grouped row scans.
        scans,
    }
}

impl DispatchSnapshot {
    /// All region-level operations.
    pub fn total(&self) -> u64 {
        self.puts + self.deletes + self.index_ops()
    }

    /// Region ops beyond the client's own base writes — as a delta around a
    /// write burst this is exactly the synchronous index-maintenance RPC
    /// count (read-backs + index raw puts/deletes).
    pub fn index_ops(&self) -> u64 {
        self.raw_puts + self.raw_deletes + self.gets + self.get_rows + self.scans
    }
}

impl Cluster {
    /// Run `f` on the state of `table` under the tables read lock, failing
    /// with [`ClusterError::NoSuchTable`] if there is no such table.
    pub(super) fn with_table<T>(
        &self,
        table: &str,
        f: impl FnOnce(&TableState) -> Result<T>,
    ) -> Result<T> {
        let tables = self.inner.tables.read();
        f(tables.get(table).ok_or_else(|| ClusterError::NoSuchTable(table.into()))?)
    }

    /// Route an encoded key to `(region, server clock)`, failing if the
    /// hosting server is down. `op` is the dispatch counter this operation
    /// lands in.
    pub(super) fn route(
        &self,
        table: &str,
        enc_key: &[u8],
        op: &AtomicU64,
    ) -> Result<(Arc<Region>, Arc<TimestampOracle>)> {
        let (region, server) = self.with_table(table, |state| {
            let server = state.map.server_for(enc_key);
            let region = state.regions.get(&state.map.locate(enc_key).id).cloned();
            Ok((region.ok_or(ClusterError::ServerDown(server))?, server))
        })?;
        let clock = {
            let servers = self.inner.servers.read();
            let s = servers.get(&server).ok_or(ClusterError::ServerDown(server))?;
            if !s.alive {
                return Err(ClusterError::ServerDown(server));
            }
            Arc::clone(&s.clock)
        };
        op.fetch_add(1, Ordering::Relaxed);
        Ok((region, clock))
    }

    /// [`Cluster::route`] of many encoded keys under one tables-lock and
    /// one servers-lock acquisition: the regions they fall in, in order of
    /// first use, each with the positions of its keys. Fails with
    /// [`ClusterError::ServerDown`] if any hosting server is down, and
    /// counts every key in `op` otherwise.
    pub(super) fn route_many(
        &self,
        table: &str,
        enc_keys: &[&[u8]],
        op: &AtomicU64,
    ) -> Result<Vec<(Arc<Region>, Vec<usize>)>> {
        let groups = self.with_table(table, |state| {
            let mut groups: Vec<(Arc<Region>, ServerId, Vec<usize>)> = Vec::new();
            for (i, key) in enc_keys.iter().enumerate() {
                let id = state.map.locate(key).id;
                match groups.iter_mut().find(|(region, _, _)| region.spec.id == id) {
                    Some((_, _, idxs)) => idxs.push(i),
                    None => {
                        let server = state.map.server_for(key);
                        let region = state.regions.get(&id).cloned();
                        groups.push((
                            region.ok_or(ClusterError::ServerDown(server))?,
                            server,
                            vec![i],
                        ));
                    }
                }
            }
            Ok(groups)
        })?;
        {
            let servers = self.inner.servers.read();
            for &(_, server, _) in &groups {
                if !servers.get(&server).is_some_and(|s| s.alive) {
                    return Err(ClusterError::ServerDown(server));
                }
            }
        }
        op.fetch_add(enc_keys.len() as u64, Ordering::Relaxed);
        Ok(groups.into_iter().map(|(region, _, idxs)| (region, idxs)).collect())
    }

    /// Regions (with engines) overlapping an encoded key range, in key order.
    pub(super) fn regions_in_range(
        &self,
        table: &str,
        start: &[u8],
        end: Option<&[u8]>,
    ) -> Result<Vec<Arc<Region>>> {
        self.with_table(table, |state| {
            let mut out = Vec::new();
            for (spec, server) in state.map.regions_in_range(start, end) {
                let region =
                    state.regions.get(&spec.id).cloned().ok_or(ClusterError::ServerDown(server))?;
                self.inner.dispatch.scans.fetch_add(1, Ordering::Relaxed);
                out.push(region);
            }
            Ok(out)
        })
    }

    /// A client-cacheable snapshot of `table`'s partition map: for each
    /// region in key order, its encoded start key, region id, the server
    /// currently hosting it, and the assignment's fencing epoch. This is
    /// what a remote client caches and routes by; it goes stale when the
    /// master reassigns regions, which the client discovers via
    /// [`ClusterError::NotServing`] or [`ClusterError::StaleEpoch`].
    pub fn partition_snapshot(
        &self,
        table: &str,
    ) -> Result<Vec<(Bytes, RegionId, ServerId, u64)>> {
        self.with_table(table, |state| {
            Ok(state
                .map
                .entries()
                .map(|(spec, server, epoch)| (spec.start.clone(), spec.id, server, epoch))
                .collect())
        })
    }

    /// The server currently hosting `row` of `table` (same row-key encoding
    /// as the data path). Region servers use this to police ownership:
    /// requests arriving at the wrong server answer
    /// [`ClusterError::NotServing`] with the real owner.
    pub fn server_for_row(&self, table: &str, row: &[u8]) -> Result<ServerId> {
        self.with_table(table, |state| Ok(state.map.server_for(&row_start(row))))
    }

    /// The current fencing epoch of the region hosting `row` of `table`.
    pub fn epoch_for_row(&self, table: &str, row: &[u8]) -> Result<u64> {
        self.with_table(table, |state| Ok(state.map.epoch_for(&row_start(row))))
    }

    /// Fencing check for a write stamped with the epoch the sender believes
    /// the target region has. A stale stamp proves the sender's partition
    /// map predates a failover: the write is rejected with
    /// [`ClusterError::StaleEpoch`] carrying the current owner and epoch so
    /// the sender can refresh and re-route. Region servers call this for
    /// every row-addressed write arriving over the wire.
    pub fn check_write_epoch(&self, table: &str, row: &[u8], stamped: u64) -> Result<()> {
        let enc = row_start(row);
        let (owner, epoch) = self.with_table(table, |state| {
            Ok((state.map.server_for(&enc), state.map.epoch_for(&enc)))
        })?;
        if stamped != epoch && !self.inner.faults.fencing_sabotaged() {
            self.inner.recovery.fenced_writes.fetch_add(1, Ordering::Relaxed);
            return Err(ClusterError::StaleEpoch { owner, epoch });
        }
        Ok(())
    }

    /// Per-operation region dispatch counts, measured at the routing choke
    /// point every operation passes through.
    pub fn dispatch_metrics(&self) -> DispatchSnapshot {
        self.inner.dispatch.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cols, test_opts};
    use super::*;
    use tempdir_lite::TempDir;

    #[test]
    fn dispatch_metrics_break_down_by_op() {
        let dir = TempDir::new("cluster").unwrap();
        let c = Cluster::new(dir.path(), test_opts(1)).unwrap();
        c.create_table("t", 2).unwrap();
        let before = c.dispatch_metrics();
        c.put("t", b"r", &cols(&[("c", "v")])).unwrap();
        c.raw_put("t", b"r2", &cols(&[("c", "v")]), 9).unwrap();
        c.get("t", b"r", b"c", u64::MAX).unwrap();
        c.get_row("t", b"r", u64::MAX).unwrap();
        c.delete("t", b"r", &[Bytes::from("c")]).unwrap();
        c.raw_delete("t", b"r2", &[Bytes::from("c")], 10).unwrap();
        c.scan_rows("t", b"", None, u64::MAX, 10).unwrap();
        let d = c.dispatch_metrics() - before;
        assert_eq!(
            (d.puts, d.raw_puts, d.gets, d.get_rows, d.deletes, d.raw_deletes, d.scans),
            (1, 1, 1, 1, 1, 1, 2),
            "one bump per dispatch; the scan fans out to both regions"
        );
        assert_eq!(d.total(), 8);
        assert_eq!(d.index_ops(), d.total() - d.puts - d.deletes);
    }

    #[test]
    fn partition_snapshot_routes_like_the_data_path() {
        let dir = TempDir::new("cluster").unwrap();
        let c = Cluster::new(dir.path(), test_opts(2)).unwrap();
        c.create_table("t", 4).unwrap();
        let snap = c.partition_snapshot("t").unwrap();
        assert_eq!(snap.len(), 4);
        assert!(snap[0].0.is_empty(), "first region starts at the empty key");
        for w in snap.windows(2) {
            assert!(w[0].0 < w[1].0, "snapshot must be in key order");
        }
        // Client-side routing over the snapshot agrees with the server, and
        // the snapshot's epochs agree with the fencing authority.
        for row in [&b"a"[..], b"m", b"z", b"\xff\xff", b""] {
            let enc = row_start(row);
            let idx = snap.partition_point(|(start, _, _, _)| start.as_ref() <= enc.as_slice());
            let (_, _, client_owner, client_epoch) = snap[idx.saturating_sub(1)];
            assert_eq!(client_owner, c.server_for_row("t", row).unwrap());
            assert_eq!(client_epoch, c.epoch_for_row("t", row).unwrap());
        }
    }
}
