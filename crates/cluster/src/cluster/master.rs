//! The master's side of failure handling (ZooKeeper's role in Figure 3):
//! server liveness, crash and restart, §5.3 recovery by region
//! reassignment and WAL replay, zombie fencing, and the counters that show
//! it ran.

use super::{Cluster, TimestampOracle};
use crate::coproc::{ColumnValue, ReplayedOp};
use crate::encoding::{decode_cell_key, row_start};
use crate::error::{ClusterError, Result};
use crate::keyspace::{RegionId, ServerId};
use diff_index_lsm::CellKind;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

diff_index_lsm::counters! {
    /// §5.3 recovery bookkeeping (how often, how much moved/replayed) and
    /// writes rejected by the epoch fence (zombie writes, stale clients).
    pub(super) struct RecoveryCounters;
    /// Counters describing the master's §5.3 recovery activity — evidence the
    /// self-healing path actually ran (and how much it moved).
    pub struct RecoveryStats {
        /// Completed `recover()` invocations.
        recoveries,
        /// Regions reassigned + reopened across all recoveries.
        regions_recovered,
        /// Base operations restored from WALs and delivered to observers.
        replayed_ops,
        /// Writes rejected with [`ClusterError::StaleEpoch`].
        fenced_writes,
    }
}

impl Cluster {
    /// Kill a region server: its regions' memtables are lost (WAL and
    /// SSTables survive on durable storage) and requests routed to it fail
    /// with [`ClusterError::ServerDown`] until [`Cluster::recover`] runs.
    /// Its engines are halted ([`diff_index_lsm::LsmTree::halt`]), so a
    /// write routed to one of them before the crash fails too.
    pub fn crash_server(&self, server: ServerId) {
        // Drop the engines hosted by the dead server, discarding memtables —
        // and capture the dying server's view of its ownership (region ids +
        // fencing epochs): the stale map a zombie would keep serving from.
        let mut stale_view: HashMap<String, Vec<(RegionId, u64)>> = HashMap::new();
        {
            let mut tables = self.inner.tables.write();
            for (name, state) in tables.iter_mut() {
                let victims: Vec<(RegionId, u64)> = state
                    .map
                    .entries()
                    .filter(|(_, s, _)| *s == server)
                    .map(|(r, _, epoch)| (r.id, epoch))
                    .collect();
                for (id, _) in &victims {
                    // A write routed here before the crash holds the region
                    // still; halting the engine makes it fail (and retry
                    // against the new owner) instead of landing after
                    // recovery has replayed the WAL.
                    if let Some(region) = state.regions.remove(id) {
                        region.engine.halt();
                    }
                }
                if !victims.is_empty() {
                    stale_view.insert(name.clone(), victims);
                }
            }
        }
        let mut servers = self.inner.servers.write();
        if let Some(s) = servers.get_mut(&server) {
            s.alive = false;
            s.stale_view = stale_view;
        }
    }

    /// Bring a crashed server back into the pool (empty-handed: its former
    /// regions stay where recovery put them; the rebooted server receives
    /// regions again at the next `create_table` or reassignment).
    pub fn restart_server(&self, server: ServerId) {
        let mut servers = self.inner.servers.write();
        if let Some(s) = servers.get_mut(&server) {
            s.alive = true;
            s.clock = Arc::new(TimestampOracle::new());
        }
    }

    /// Master failover (ZooKeeper's role in Figure 3): reassign every region
    /// of every dead server to the survivors, reopen each from durable
    /// storage (replaying its WAL), and deliver every replayed base
    /// operation to the table's observers (`post_replay`) so Diff-Index can
    /// re-enqueue index work (§5.3).
    pub fn recover(&self) -> Result<()> {
        let dead: Vec<ServerId> = {
            let servers = self.inner.servers.read();
            servers.iter().filter(|(_, s)| !s.alive).map(|(&id, _)| id).collect()
        };
        let alive = self.servers();
        if alive.is_empty() {
            return Err(ClusterError::Unavailable("no surviving servers".into()));
        }
        // Open the §5.3 recovery window: observers hold their AUQ workers so
        // queued tasks for dead regions stop burning retries; they resume —
        // now draining against the new owners — when the window closes.
        let tables: Vec<String> = self.inner.tables.read().keys().cloned().collect();
        let hooked: Vec<_> = tables.into_iter().map(|t| (self.observers_of(&t), t)).collect();
        for (observers, table) in &hooked {
            for obs in observers {
                obs.pre_recovery(self, table);
            }
        }
        let result = self.recover_inner(&dead, &alive);
        for (observers, table) in &hooked {
            for obs in observers {
                obs.post_recovery(self, table);
            }
        }
        result
    }

    fn recover_inner(&self, dead: &[ServerId], alive: &[ServerId]) -> Result<()> {
        let stats = &self.inner.recovery;
        // Collect the replay work while holding the write lock, dispatch
        // observers after releasing it (observers issue cluster ops).
        let mut replays: Vec<(String, Vec<ReplayedOp>)> = Vec::new();
        {
            let mut tables = self.inner.tables.write();
            for (name, state) in tables.iter_mut() {
                let mut moved: Vec<RegionId> = Vec::new();
                for &d in dead {
                    moved.extend(state.map.reassign(d, alive));
                }
                stats.regions_recovered.fetch_add(moved.len() as u64, Ordering::Relaxed);
                for id in moved {
                    let spec = state
                        .map
                        .regions()
                        .find(|(r, _)| r.id == id)
                        .map(|(r, _)| r.clone())
                        .expect("moved region exists");
                    let (region, replayed) = self.open_region(name, spec)?;
                    // The dead server's clock may have run ahead of the
                    // adopting server's; advance the new owner past every
                    // recovered timestamp so post-recovery writes cannot be
                    // shadowed by pre-crash data (LSM newest-ts-wins).
                    let max_ts = region.engine.max_timestamp();
                    if let Some(owner) = state.map.server_of_region(id) {
                        let servers = self.inner.servers.read();
                        if let Some(srv) = servers.get(&owner) {
                            srv.clock.advance_past(max_ts);
                        }
                    }
                    state.regions.insert(id, region);
                    let mut ops = Vec::with_capacity(replayed.len());
                    for cell in replayed {
                        let Some((row, column)) = decode_cell_key(&cell.key.user_key) else {
                            continue;
                        };
                        ops.push(match cell.key.kind {
                            CellKind::Put => ReplayedOp::Put {
                                row,
                                column,
                                value: cell.value,
                                ts: cell.key.ts,
                            },
                            CellKind::Delete => {
                                ReplayedOp::Delete { row, column, ts: cell.key.ts }
                            }
                        });
                    }
                    if !ops.is_empty() {
                        replays.push((name.clone(), ops));
                    }
                }
            }
        }
        for (table, ops) in replays {
            let observers = self.observers_of(&table);
            stats.replayed_ops.fetch_add(ops.len() as u64, Ordering::Relaxed);
            for op in &ops {
                for obs in &observers {
                    obs.post_replay(self, &table, op)?;
                }
            }
        }
        stats.recoveries.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// A write arriving at a **zombie** — server `server` was declared dead
    /// and its regions reassigned, but it is still reachable and still holds
    /// its crash-time view of the partition map. The zombie checks the
    /// fencing epoch recorded in its stale view against the region's current
    /// epoch and must reject the write with [`ClusterError::StaleEpoch`]:
    /// accepting it would ack a write into discarded state (split-brain,
    /// a lost acked write). With fencing sabotaged
    /// ([`FaultPlan::sabotage_fencing`](crate::FaultPlan::sabotage_fencing)),
    /// the zombie acks the write *without applying it anywhere
    /// authoritative* — exactly the failure mode the chaos checkers must
    /// catch.
    pub fn zombie_put(
        &self,
        server: ServerId,
        table: &str,
        row: &[u8],
        _columns: &[ColumnValue],
    ) -> Result<u64> {
        let enc = row_start(row);
        let (region_id, owner, current_epoch) = self.with_table(table, |state| {
            Ok((state.map.locate(&enc).id, state.map.server_for(&enc), state.map.epoch_for(&enc)))
        })?;
        let servers = self.inner.servers.read();
        let zombie =
            servers.get(&server).ok_or(ClusterError::ServerDown(server))?;
        let stale_epoch = zombie
            .stale_view
            .get(table)
            .and_then(|v| v.iter().find(|(id, _)| *id == region_id))
            .map(|(_, e)| *e);
        let Some(stale_epoch) = stale_epoch else {
            // The zombie never owned this row's region: even its own stale
            // map says "not mine".
            return Err(ClusterError::NotServing { owner });
        };
        if stale_epoch == current_epoch {
            // The region has not been reassigned yet (the master has not
            // declared this server dead): there is no new owner to protect,
            // and the crashed engine cannot serve — plain unavailability.
            return Err(ClusterError::ServerDown(server));
        }
        if !self.inner.faults.fencing_sabotaged() {
            self.inner.recovery.fenced_writes.fetch_add(1, Ordering::Relaxed);
            return Err(ClusterError::StaleEpoch { owner, epoch: current_epoch });
        }
        // SABOTAGED: the zombie acks with a timestamp from its own clock.
        // The write lands only in the zombie's doomed state (never visible
        // to the cluster), so this ack is a lie — a lost acked write.
        Ok(zombie.clock.next())
    }

    /// Ids of currently alive servers.
    pub fn servers(&self) -> Vec<ServerId> {
        self.inner
            .servers
            .read()
            .iter()
            .filter(|(_, s)| s.alive)
            .map(|(&id, _)| id)
            .collect()
    }

    /// Liveness of one server (the in-process health probe).
    pub fn is_alive(&self, server: ServerId) -> bool {
        self.inner.servers.read().get(&server).map(|s| s.alive).unwrap_or(false)
    }

    /// Ids of every server the cluster was built with, alive or dead — the
    /// set a health monitor probes.
    pub fn all_server_ids(&self) -> Vec<ServerId> {
        self.inner.servers.read().keys().copied().collect()
    }

    /// §5.3 recovery + fencing counters.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.inner.recovery.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cols, test_opts, RecordingObserver};
    use super::*;
    use crate::encoding::cell_key;
    use bytes::Bytes;
    use diff_index_lsm::Cell;
    use tempdir_lite::TempDir;

    #[test]
    fn crash_makes_server_unavailable_then_recover_restores() {
        let dir = TempDir::new("cluster").unwrap();
        let c = Cluster::new(dir.path(), test_opts(2)).unwrap();
        c.create_table("t", 2).unwrap();
        // Find rows landing on each server's region.
        let mut row_on_s0 = None;
        let mut row_on_s1 = None;
        for i in 0..255u8 {
            let row = [i, b'x'];
            let tables = c.inner.tables.read();
            let server = tables.get("t").unwrap().map.server_for(&row_start(&row));
            drop(tables);
            if server == 0 && row_on_s0.is_none() {
                row_on_s0 = Some(row);
            }
            if server == 1 && row_on_s1.is_none() {
                row_on_s1 = Some(row);
            }
        }
        let (r0, r1) = (row_on_s0.unwrap(), row_on_s1.unwrap());
        c.put("t", &r0, &cols(&[("c", "on-s0")])).unwrap();
        c.put("t", &r1, &cols(&[("c", "on-s1")])).unwrap();

        c.crash_server(1);
        // Data on server 0 still readable; server 1 rows unavailable.
        assert!(c.get("t", &r0, b"c", u64::MAX).unwrap().is_some());
        assert!(matches!(c.get("t", &r1, b"c", u64::MAX), Err(ClusterError::ServerDown(1))));
        assert!(matches!(c.put("t", &r1, &cols(&[("c", "x")])), Err(ClusterError::ServerDown(1))));

        // Master recovery: region reassigned to server 0, WAL replayed.
        c.recover().unwrap();
        let got = c.get("t", &r1, b"c", u64::MAX).unwrap().unwrap();
        assert_eq!(got.value, Bytes::from("on-s1"), "unflushed data recovered from WAL");
        c.put("t", &r1, &cols(&[("c", "post-recovery")])).unwrap();
    }

    #[test]
    fn write_routed_before_a_crash_fails_instead_of_landing_after_recovery() {
        let dir = TempDir::new("cluster").unwrap();
        let c = Cluster::new(dir.path(), test_opts(2)).unwrap();
        c.create_table("t", 2).unwrap();
        let row = [0u8, b'x'];
        // What an in-flight raw write holds: the region, routed pre-crash.
        let (region, _) = c.route("t", &row_start(&row), &c.inner.dispatch.puts).unwrap();
        c.crash_server(c.server_for_row("t", &row).unwrap());
        c.recover().unwrap();

        let late = Cell::put(cell_key(&row, b"c"), 1, "late");
        assert!(region.engine.write_batch(&[late]).is_err(), "the crashed engine is halted");
        c.put("t", &row, &cols(&[("c", "v")])).unwrap();
        assert_eq!(c.get("t", &row, b"c", u64::MAX).unwrap().unwrap().value, Bytes::from("v"));
    }

    #[test]
    fn recovery_delivers_replayed_ops_to_observers() {
        let dir = TempDir::new("cluster").unwrap();
        let c = Cluster::new(dir.path(), test_opts(2)).unwrap();
        c.create_table("t", 2).unwrap();
        let obs = RecordingObserver::new();
        c.register_observer("t", obs.clone()).unwrap();

        // Write rows to both servers (some flushed, some not).
        let mut unflushed = Vec::new();
        for i in 0..20u8 {
            let row = [i.wrapping_mul(13), b'r', i];
            c.put("t", &row, &cols(&[("c", "v")])).unwrap();
            unflushed.push(row);
        }
        c.crash_server(0);
        c.recover().unwrap();
        let replays = obs.replays.lock();
        // Only ops whose region lived on server 0 are replayed; there must
        // be at least one, and every replay must be a Put with a sane ts.
        assert!(!replays.is_empty(), "server 0 held some regions with data");
        for op in replays.iter() {
            assert!(matches!(op, ReplayedOp::Put { .. }));
            assert!(op.ts() > 0);
        }
    }

    #[test]
    fn crash_loses_nothing_after_flush() {
        let dir = TempDir::new("cluster").unwrap();
        let c = Cluster::new(dir.path(), test_opts(2)).unwrap();
        c.create_table("t", 4).unwrap();
        for i in 0..30 {
            c.put("t", format!("row{i}").as_bytes(), &cols(&[("c", &format!("v{i}"))])).unwrap();
        }
        c.flush_table("t").unwrap();
        for i in 30..60 {
            c.put("t", format!("row{i}").as_bytes(), &cols(&[("c", &format!("v{i}"))])).unwrap();
        }
        c.crash_server(0);
        c.crash_server(1);
        // All servers dead: recovery must fail.
        assert!(c.recover().is_err());
        // Un-crash by creating a fresh cluster over the same dir.
        let c2 = Cluster::new(dir.path(), test_opts(2)).unwrap();
        c2.create_table("t", 4).unwrap();
        for i in 0..60 {
            let got = c2.get("t", format!("row{i}").as_bytes(), b"c", u64::MAX).unwrap().unwrap();
            assert_eq!(got.value, Bytes::from(format!("v{i}")));
        }
    }

    #[test]
    fn reassignment_bumps_epochs_and_fences_stale_writes() {
        let dir = TempDir::new("cluster").unwrap();
        let c = Cluster::new(dir.path(), test_opts(2)).unwrap();
        c.create_table("t", 4).unwrap();
        // Find a row hosted by server 1.
        let row = (0..=255u8)
            .map(|b| [b, b'x'])
            .find(|r| c.server_for_row("t", r).unwrap() == 1)
            .expect("some row lands on server 1");
        let old_epoch = c.epoch_for_row("t", &row).unwrap();
        c.check_write_epoch("t", &row, old_epoch).unwrap();
        c.crash_server(1);
        c.recover().unwrap();
        let new_epoch = c.epoch_for_row("t", &row).unwrap();
        assert_eq!(new_epoch, old_epoch + 1, "failover bumps the region epoch");
        // A write stamped under the old assignment is fenced.
        match c.check_write_epoch("t", &row, old_epoch) {
            Err(ClusterError::StaleEpoch { owner, epoch }) => {
                assert_eq!(owner, 0);
                assert_eq!(epoch, new_epoch);
            }
            other => panic!("expected StaleEpoch, got {other:?}"),
        }
        c.check_write_epoch("t", &row, new_epoch).unwrap();
        let stats = c.recovery_stats();
        assert_eq!(stats.recoveries, 1);
        assert!(stats.regions_recovered >= 1);
        assert!(stats.fenced_writes >= 1);
    }

    #[test]
    fn zombie_write_is_fenced_after_failover() {
        let dir = TempDir::new("cluster").unwrap();
        let c = Cluster::new(dir.path(), test_opts(2)).unwrap();
        c.create_table("t", 4).unwrap();
        let row = (0..=255u8)
            .map(|b| [b, b'z'])
            .find(|r| c.server_for_row("t", r).unwrap() == 1)
            .expect("some row lands on server 1");
        c.put("t", &row, &cols(&[("c", "before")])).unwrap();
        c.crash_server(1);
        // Before the master reassigns, the zombie's view matches the map:
        // the failure is plain unavailability, not a fencing violation.
        assert!(matches!(
            c.zombie_put(1, "t", &row, &cols(&[("c", "split")])),
            Err(ClusterError::ServerDown(1))
        ));
        c.recover().unwrap();
        // Resurrect the zombie (it rejoins empty-handed) and replay the
        // write it would have served from its stale view: fenced.
        c.restart_server(1);
        match c.zombie_put(1, "t", &row, &cols(&[("c", "split")])) {
            Err(ClusterError::StaleEpoch { owner, .. }) => assert_eq!(owner, 0),
            other => panic!("expected StaleEpoch, got {other:?}"),
        }
        // A row the zombie never owned answers NotServing from its own view.
        let other_row = (0..=255u8)
            .map(|b| [b, b'z'])
            .find(|r| {
                c.server_for_row("t", r).unwrap() == 0
                    && c.epoch_for_row("t", r).unwrap() == 1
            })
            .expect("some region never moved");
        assert!(matches!(
            c.zombie_put(1, "t", &other_row, &cols(&[("c", "x")])),
            Err(ClusterError::NotServing { owner: 0 })
        ));
        // The authoritative value is untouched.
        let got = c.get("t", &row, b"c", u64::MAX).unwrap().unwrap();
        assert_eq!(got.value, Bytes::from("before"));
    }
}
