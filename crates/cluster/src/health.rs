//! Master-side failure detection and self-healing (ZooKeeper's role in
//! Figure 3, automated).
//!
//! The paper's §5.3 recovery protocol assumes someone *notices* a dead
//! region server; in HBase that is ZooKeeper session expiry. This module is
//! that someone: a [`HealthMonitor`] probes every region server's liveness
//! (in-process probe by default, a `Ping` RPC over `crates/net` when the
//! cluster is fronted by sockets), tracks consecutive missed probes, and
//! walks each server through `Healthy → Suspect → Dead`. On the transition
//! to `Dead` it runs [`Cluster::recover`] — region reassignment (bumping
//! fencing epochs), WAL replay, observer re-delivery — with no operator in
//! the loop.
//!
//! The monitor can be driven two ways:
//!
//! * **ticked** — the owner calls [`HealthMonitor::tick`] explicitly. One
//!   tick is one probe round; transitions are a pure function of consecutive
//!   misses, so the chaos harness gets deterministic healing (a crashed
//!   server is declared dead exactly `dead_after` ticks after it stops
//!   answering).
//! * **threaded** — [`HealthMonitor::start`] spawns a background thread
//!   ticking every `probe_interval` until [`HealthMonitor::shutdown`].
//!
//! A false suspicion is harmless by construction: `recover()` consults the
//! cluster's own liveness registry and reassigns nothing for a server that
//! is actually up, and the epoch fence only advances when regions really
//! move.

use crate::cluster::{Cluster, WeakCluster};
use crate::keyspace::ServerId;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Detector state of one region server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Answering probes.
    Healthy,
    /// Missed at least `suspect_after` consecutive probes — not yet
    /// declared dead (could be a dropped packet / long GC pause).
    Suspect,
    /// Missed `dead_after` consecutive probes: declared dead, regions
    /// reassigned. Stays `Dead` until a probe succeeds again (restart).
    Dead,
}

/// Failure-detection thresholds.
#[derive(Debug, Clone)]
pub struct HealthOptions {
    /// Consecutive missed probes before a server turns `Suspect`.
    pub suspect_after: u32,
    /// Consecutive missed probes before a server is declared `Dead` and
    /// recovery runs. Must be ≥ `suspect_after`; keeping it above 1 makes
    /// the detector robust to a single dropped probe (chaos injects those).
    pub dead_after: u32,
    /// Probe cadence of the background thread mode ([`HealthMonitor::start`]).
    pub probe_interval: Duration,
}

impl Default for HealthOptions {
    fn default() -> Self {
        Self { suspect_after: 1, dead_after: 2, probe_interval: Duration::from_millis(20) }
    }
}

diff_index_lsm::counters! {
    /// Live detector counters, bumped by [`HealthMonitor::tick`].
    struct HealthCounters;
    /// Counters describing detector activity.
    pub struct HealthMetrics {
        /// Individual liveness probes issued.
        probes,
        /// Transitions into `Suspect`.
        suspicions,
        /// Transitions into `Dead` (death declarations).
        deaths,
        /// Automatic `Cluster::recover()` runs that completed.
        auto_recoveries,
        /// Automatic recoveries that failed (e.g. no surviving servers) and
        /// will be retried on the next tick.
        failed_recoveries,
        /// Transitions from `Suspect`/`Dead` back to `Healthy` (rejoins).
        rejoins,
    }
}

struct Track {
    state: HealthState,
    misses: u32,
    /// True once this death has been handled by a completed recovery; the
    /// flag resets when the server rejoins so a later death heals again.
    recovered: bool,
}

type Probe = dyn Fn(ServerId) -> bool + Send + Sync;

/// The master's failure detector + auto-recovery driver.
pub struct HealthMonitor {
    cluster: WeakCluster,
    opts: HealthOptions,
    probe: Mutex<Option<Box<Probe>>>,
    tracks: Mutex<BTreeMap<ServerId, Track>>,
    counters: HealthCounters,
    shutdown: AtomicBool,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl HealthMonitor {
    /// Build a monitor over `cluster`. Holds only a weak handle, so the
    /// monitor never keeps a dropped cluster alive.
    pub fn new(cluster: &Cluster, opts: HealthOptions) -> Arc<Self> {
        assert!(opts.dead_after >= opts.suspect_after.max(1));
        Arc::new(Self {
            cluster: cluster.downgrade(),
            opts,
            probe: Mutex::new(None),
            tracks: Mutex::new(BTreeMap::new()),
            counters: HealthCounters::default(),
            shutdown: AtomicBool::new(false),
            thread: Mutex::new(None),
        })
    }

    /// Replace the default in-process liveness probe (`Cluster::is_alive`)
    /// with a custom one — the socket deployment installs a `Ping`-RPC probe
    /// here so detection exercises the real network path.
    pub fn set_probe(&self, probe: Box<Probe>) {
        *self.probe.lock() = Some(probe);
    }

    /// One probe round. Returns the servers declared dead *by this tick*
    /// (after their regions were recovered, when recovery succeeded).
    pub fn tick(&self) -> Vec<ServerId> {
        let Some(cluster) = self.cluster.upgrade() else {
            return Vec::new();
        };
        let mut newly_dead = Vec::new();
        {
            let probe = self.probe.lock();
            let mut tracks = self.tracks.lock();
            for sid in cluster.all_server_ids() {
                let up = match probe.as_ref() {
                    Some(p) => p(sid),
                    None => cluster.is_alive(sid),
                };
                self.counters.probes.fetch_add(1, Ordering::Relaxed);
                let t = tracks.entry(sid).or_insert(Track {
                    state: HealthState::Healthy,
                    misses: 0,
                    recovered: false,
                });
                if up {
                    if t.state != HealthState::Healthy {
                        self.counters.rejoins.fetch_add(1, Ordering::Relaxed);
                    }
                    t.state = HealthState::Healthy;
                    t.misses = 0;
                    t.recovered = false;
                    continue;
                }
                t.misses = t.misses.saturating_add(1);
                let next = if t.misses >= self.opts.dead_after {
                    HealthState::Dead
                } else if t.misses >= self.opts.suspect_after {
                    HealthState::Suspect
                } else {
                    HealthState::Healthy
                };
                if next == HealthState::Suspect && t.state == HealthState::Healthy {
                    self.counters.suspicions.fetch_add(1, Ordering::Relaxed);
                }
                if next == HealthState::Dead && t.state != HealthState::Dead {
                    self.counters.deaths.fetch_add(1, Ordering::Relaxed);
                    newly_dead.push(sid);
                }
                t.state = next;
            }
        }
        // Heal outside the track lock: recovery dispatches observers, which
        // issue cluster ops. `recover()` reassigns every dead server's
        // regions in one pass, so one call covers all fresh deaths; servers
        // whose recovery failed (no survivors yet) retry on the next tick.
        if self.needs_recovery() {
            match cluster.recover() {
                Ok(()) => {
                    self.counters.auto_recoveries.fetch_add(1, Ordering::Relaxed);
                    let mut tracks = self.tracks.lock();
                    for t in tracks.values_mut() {
                        if t.state == HealthState::Dead {
                            t.recovered = true;
                        }
                    }
                }
                Err(_) => {
                    self.counters.failed_recoveries.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        newly_dead
    }

    fn needs_recovery(&self) -> bool {
        self.tracks
            .lock()
            .values()
            .any(|t| t.state == HealthState::Dead && !t.recovered)
    }

    /// Current detector state of `server` (`Healthy` if never probed).
    pub fn state_of(&self, server: ServerId) -> HealthState {
        self.tracks
            .lock()
            .get(&server)
            .map(|t| t.state)
            .unwrap_or(HealthState::Healthy)
    }

    /// Detector states of every probed server.
    pub fn states(&self) -> Vec<(ServerId, HealthState)> {
        self.tracks.lock().iter().map(|(&s, t)| (s, t.state)).collect()
    }

    /// Detector activity counters.
    pub fn metrics(&self) -> HealthMetrics {
        self.counters.snapshot()
    }

    /// Spawn the background probe thread (idempotent). The thread ticks
    /// every `probe_interval` until [`HealthMonitor::shutdown`] or the
    /// cluster is dropped.
    pub fn start(self: &Arc<Self>) {
        let mut slot = self.thread.lock();
        if slot.is_some() {
            return;
        }
        let me = Arc::clone(self);
        *slot = Some(std::thread::spawn(move || {
            while !me.shutdown.load(Ordering::Relaxed) {
                if me.cluster.upgrade().is_none() {
                    break;
                }
                me.tick();
                std::thread::sleep(me.opts.probe_interval);
            }
        }));
    }

    /// Stop the background probe thread (no-op if never started).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.thread.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for HealthMonitor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterOptions;
    use tempdir_lite::TempDir;

    fn cluster(n: usize) -> (TempDir, Cluster) {
        let dir = TempDir::new("health").unwrap();
        let c = Cluster::new(
            dir.path(),
            ClusterOptions { num_servers: n, ..ClusterOptions::default() },
        )
        .unwrap();
        (dir, c)
    }

    #[test]
    fn healthy_cluster_stays_healthy() {
        let (_d, c) = cluster(3);
        let m = HealthMonitor::new(&c, HealthOptions::default());
        for _ in 0..5 {
            assert!(m.tick().is_empty());
        }
        assert!(m.states().iter().all(|(_, s)| *s == HealthState::Healthy));
        let metrics = m.metrics();
        assert_eq!(metrics.probes, 15);
        assert_eq!(metrics.deaths, 0);
        assert_eq!(metrics.auto_recoveries, 0);
    }

    #[test]
    fn crash_walks_suspect_then_dead_then_auto_recovers() {
        let (_d, c) = cluster(2);
        c.create_table("t", 4).unwrap();
        let row = (0..=255u8)
            .map(|b| [b, b'h'])
            .find(|r| c.server_for_row("t", r).unwrap() == 1)
            .unwrap();
        c.put("t", &row, &[(bytes::Bytes::from("c"), bytes::Bytes::from("v"))]).unwrap();

        let m = HealthMonitor::new(
            &c,
            HealthOptions { suspect_after: 1, dead_after: 2, ..HealthOptions::default() },
        );
        m.tick();
        c.crash_server(1);
        assert!(m.tick().is_empty(), "first miss: suspect only");
        assert_eq!(m.state_of(1), HealthState::Suspect);
        assert!(
            matches!(c.get("t", &row, b"c", u64::MAX), Err(crate::error::ClusterError::ServerDown(1))),
            "no recovery has run yet"
        );
        assert_eq!(m.tick(), vec![1], "second miss: declared dead");
        assert_eq!(m.state_of(1), HealthState::Dead);
        // Recovery ran automatically: the row is readable from the new owner.
        let got = c.get("t", &row, b"c", u64::MAX).unwrap().unwrap();
        assert_eq!(got.value, bytes::Bytes::from("v"));
        assert_eq!(m.metrics().auto_recoveries, 1);
        assert_eq!(c.recovery_stats().recoveries, 1);

        // Restart → rejoin; a later crash of the other server heals too.
        c.restart_server(1);
        m.tick();
        assert_eq!(m.state_of(1), HealthState::Healthy);
        assert_eq!(m.metrics().rejoins, 1);
        c.crash_server(0);
        m.tick();
        m.tick();
        assert_eq!(m.state_of(0), HealthState::Dead);
        assert_eq!(m.metrics().auto_recoveries, 2);
        let got = c.get("t", &row, b"c", u64::MAX).unwrap().unwrap();
        assert_eq!(got.value, bytes::Bytes::from("v"));
    }

    #[test]
    fn single_dropped_probe_does_not_kill_a_live_server() {
        let (_d, c) = cluster(2);
        let m = HealthMonitor::new(
            &c,
            HealthOptions { suspect_after: 1, dead_after: 2, ..HealthOptions::default() },
        );
        // Custom probe that fails exactly once for server 0.
        let dropped = AtomicBool::new(false);
        let c2 = c.clone();
        m.set_probe(Box::new(move |sid| {
            if sid == 0 && !dropped.swap(true, Ordering::SeqCst) {
                return false;
            }
            c2.is_alive(sid)
        }));
        m.tick();
        assert_eq!(m.state_of(0), HealthState::Suspect, "one miss suspects");
        m.tick();
        assert_eq!(m.state_of(0), HealthState::Healthy, "next success clears it");
        assert_eq!(m.metrics().deaths, 0);
        assert_eq!(c.recovery_stats().recoveries, 0);
    }

    #[test]
    fn background_thread_heals_without_ticks() {
        let (_d, c) = cluster(2);
        c.create_table("t", 4).unwrap();
        let row = (0..=255u8)
            .map(|b| [b, b't'])
            .find(|r| c.server_for_row("t", r).unwrap() == 1)
            .unwrap();
        c.put("t", &row, &[(bytes::Bytes::from("c"), bytes::Bytes::from("v"))]).unwrap();
        let m = HealthMonitor::new(
            &c,
            HealthOptions {
                suspect_after: 1,
                dead_after: 2,
                probe_interval: Duration::from_millis(5),
            },
        );
        m.start();
        m.start(); // idempotent
        c.crash_server(1);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match c.get("t", &row, b"c", u64::MAX) {
                Ok(Some(v)) => {
                    assert_eq!(v.value, bytes::Bytes::from("v"));
                    break;
                }
                _ if std::time::Instant::now() > deadline => {
                    panic!("background monitor did not heal in time")
                }
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        m.shutdown();
        assert!(m.metrics().auto_recoveries >= 1);
    }
}
