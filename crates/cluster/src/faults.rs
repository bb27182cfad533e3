//! Cluster-level deterministic fault injection.
//!
//! A [`FaultPlan`] is attached to every [`Cluster`](crate::Cluster) at
//! construction (unarmed, zero-cost in production). It bundles:
//!
//! * one shared [`FaultInjector`] plumbed into **every region engine** the
//!   cluster opens (including engines reopened by recovery), so a chaos
//!   harness can make the next WAL fsync or append fail wherever it lands;
//! * a **crash-mid-put** trigger: the next client `put` crashes its hosting
//!   server *after* the base write is durably applied but *before* the
//!   coprocessors run or the client is acked — the exact §5.3 window where
//!   the base table and the index diverge until WAL-replay recovery
//!   re-enqueues the maintenance work;
//! * two **sabotage switches** that break a correctness rule on purpose, so
//!   a harness can prove its checkers catch the breakage: the §4.3
//!   old-entry timestamp rule and epoch fencing. They are configuration for
//!   a whole run, not armed faults: [`FaultPlan::disarm_all`] leaves them
//!   set.

use diff_index_lsm::FaultInjector;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Per-cluster fault-injection surface. All state is atomic; arming from a
/// harness thread and consuming from request threads needs no locks.
#[derive(Debug)]
pub struct FaultPlan {
    /// Engine-level injector shared by every region engine of the cluster.
    lsm: Arc<FaultInjector>,
    /// When set, the next client `put` crashes its server between the
    /// durable base write and observer dispatch.
    crash_next_put: AtomicBool,
    /// How many crash-mid-put faults actually fired.
    fired_put_crashes: AtomicU64,
    /// Sabotage: synchronous index repair reads the pre-image and deletes
    /// the old entry at `t` instead of `t − δ`.
    violate_delta: AtomicBool,
    /// Sabotage: epoch fencing accepts stale-epoch and zombie writes.
    disable_fencing: AtomicBool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            lsm: Arc::new(FaultInjector::new()),
            crash_next_put: AtomicBool::new(false),
            fired_put_crashes: AtomicU64::new(0),
            violate_delta: AtomicBool::new(false),
            disable_fencing: AtomicBool::new(false),
        }
    }
}

impl FaultPlan {
    /// The engine-level injector shared by all of this cluster's regions.
    /// Arm fsync/append failures through it.
    pub fn lsm(&self) -> &Arc<FaultInjector> {
        &self.lsm
    }

    /// Arm the crash-mid-put trigger: the next client `put` (not
    /// `put_batch`/`raw_put`) crashes its hosting server after the base
    /// write commits, before index maintenance and before the ack.
    pub fn arm_crash_on_next_put(&self) {
        self.crash_next_put.store(true, Ordering::Release);
    }

    /// Consume the crash-mid-put trigger (data path only).
    pub(crate) fn take_crash_next_put(&self) -> bool {
        let fire = self.crash_next_put.swap(false, Ordering::AcqRel);
        if fire {
            self.fired_put_crashes.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// How many crash-mid-put faults fired so far.
    pub fn fired_put_crashes(&self) -> u64 {
        self.fired_put_crashes.load(Ordering::Relaxed)
    }

    /// Disarm everything (cluster- and engine-level), so no leftover armed
    /// fault can leak into a verification phase.
    pub fn disarm_all(&self) {
        self.crash_next_put.store(false, Ordering::Release);
        self.lsm.disarm_all();
    }

    /// True if any fault (cluster- or engine-level) is still armed.
    pub fn anything_armed(&self) -> bool {
        self.crash_next_put.load(Ordering::Acquire) || self.lsm.anything_armed()
    }

    /// Sabotage §4.3: when set, the synchronous repair arm performs its
    /// pre-image read and old-entry delete at the base timestamp `t`
    /// instead of `t − δ`. The read-back then observes the *new* value,
    /// concludes old == new, skips the delete, and leaks the stale
    /// old-value entry for good.
    pub fn sabotage_delta(&self, on: bool) {
        self.violate_delta.store(on, Ordering::SeqCst);
    }

    /// True while the §4.3 sabotage is on.
    pub fn delta_sabotaged(&self) -> bool {
        self.violate_delta.load(Ordering::SeqCst)
    }

    /// Sabotage epoch fencing: when set, stale-epoch writes are accepted
    /// and [`Cluster::zombie_put`](crate::Cluster::zombie_put) acks writes
    /// it should reject — a lost acked write the checkers must catch.
    pub fn sabotage_fencing(&self, on: bool) {
        self.disable_fencing.store(on, Ordering::SeqCst);
    }

    /// True while the fencing sabotage is on.
    pub fn fencing_sabotaged(&self) -> bool {
        self.disable_fencing.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_trigger_fires_once() {
        let p = FaultPlan::default();
        assert!(!p.take_crash_next_put());
        p.arm_crash_on_next_put();
        assert!(p.anything_armed());
        assert!(p.take_crash_next_put());
        assert!(!p.take_crash_next_put());
        assert_eq!(p.fired_put_crashes(), 1);
    }

    #[test]
    fn disarm_covers_both_levels() {
        let p = FaultPlan::default();
        p.arm_crash_on_next_put();
        p.lsm().arm_fsync_failures(3);
        p.disarm_all();
        assert!(!p.anything_armed());
        assert!(!p.lsm().take_fsync_failure());
    }
}
