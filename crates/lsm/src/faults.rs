//! Deterministic fault injection for the whole stack.
//!
//! A [`FaultPlan`] is the one place a test harness arms failures. Every
//! cluster owns one (see `Cluster::faults`) and hands the same
//! `Arc<FaultPlan>` to each region engine it opens and to each network
//! server fronting it. The harness arms `n` failures at a [`FaultPoint`];
//! the next `n` times the stack reaches that point it fails instead of
//! completing normally. Injection is purely subtractive: an injected
//! failure never corrupts state, it only makes the stack behave exactly as
//! if a syscall had failed or a server had died:
//!
//! * [`FaultPoint::WalFsync`] fires in the group-commit leader *before*
//!   `File::sync_data`, so the WAL record is staged (buffered, applied to
//!   the memtable) but no waiter is acked: the paper's §5.3 "server fails
//!   before index maintenance" window.
//! * [`FaultPoint::WalAppend`] fires in [`stage_batch`] *before* the
//!   buffered WAL append, so the write is rejected wholesale.
//! * [`FaultPoint::CrashMidPut`] crashes the server hosting the next
//!   client `put` after the base write is durable but before the
//!   coprocessors run or the client is acked.
//! * [`FaultPoint::DropResponse`] makes the next request completing on one
//!   network server execute, then lose its response and its connection.
//!
//! Two **sabotage switches** break a correctness rule on purpose, so a
//! harness can prove its checkers catch the breakage: the §4.3 old-entry
//! timestamp rule and epoch fencing. They configure a whole run and are
//! not armed faults: [`FaultPlan::disarm_all`] leaves them set.
//!
//! [`stage_batch`]: crate::LsmTree::stage_batch
//!
//! An unarmed plan costs one atomic load per [`FaultPlan::take`]; arming
//! and consuming take a mutex only while something is armed. Everything
//! is deterministic given a deterministic sequence of arm/operation
//! calls; the chaos harness derives both from one seed.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A place in the stack where an armed failure fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// A WAL fsync fails after the buffer reached the OS file.
    WalFsync,
    /// A WAL append fails before anything is staged.
    WalAppend,
    /// A client `put` crashes its server after the durable base write.
    CrashMidPut,
    /// The network server with this id drops its next response.
    DropResponse(u32),
}

/// The stack's one fault-injection surface. Unarmed, and free, in
/// production.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Failures still armed, per point. Touched only while `pending > 0`.
    armed: Mutex<HashMap<FaultPoint, u64>>,
    /// Sum of `armed`, updated under its lock: the lock-free fast path.
    pending: AtomicU64,
    /// Sabotage: old-entry steps read the pre-image and delete the old
    /// entry at `t` instead of `t − δ`.
    violate_delta: AtomicBool,
    /// Sabotage: epoch fencing accepts stale-epoch and zombie writes.
    disable_fencing: AtomicBool,
}

impl FaultPlan {
    /// Arm the next `n` arrivals at `point` to fail (cumulative with
    /// failures already armed there).
    pub fn arm(&self, point: FaultPoint, n: u32) {
        let mut armed = self.armed.lock();
        *armed.entry(point).or_default() += u64::from(n);
        self.pending.fetch_add(u64::from(n), Ordering::Release);
    }

    /// Stack-side check at `point`: consume one armed failure there.
    /// Returns true if the caller must fail instead of proceeding.
    pub fn take(&self, point: FaultPoint) -> bool {
        if self.pending.load(Ordering::Acquire) == 0 {
            return false;
        }
        let mut armed = self.armed.lock();
        match armed.get_mut(&point) {
            Some(n) if *n > 0 => {
                *n -= 1;
                self.pending.fetch_sub(1, Ordering::Release);
                true
            }
            _ => false,
        }
    }

    /// Disarm every armed failure at every point (end-of-scenario cleanup,
    /// so no leftover fault can leak into a verification phase).
    pub fn disarm_all(&self) {
        let mut armed = self.armed.lock();
        armed.clear();
        self.pending.store(0, Ordering::Release);
    }

    /// True if any failure is still armed anywhere.
    pub fn anything_armed(&self) -> bool {
        self.pending.load(Ordering::Acquire) > 0
    }

    /// Sabotage §4.3: when set, every old-entry step — sync-full's SU3→SU4
    /// on puts (single or batched) and deletes, and the APS's BA2→BA3 —
    /// performs its pre-image read and old-entry delete at the base
    /// timestamp `t` instead of `t − δ`. The read-back then observes the
    /// *new* value, concludes old == new, skips the delete, and leaks the
    /// stale old-value entry for good.
    pub fn sabotage_delta(&self, on: bool) {
        self.violate_delta.store(on, Ordering::SeqCst);
    }

    /// True while the §4.3 sabotage is on.
    pub fn delta_sabotaged(&self) -> bool {
        self.violate_delta.load(Ordering::SeqCst)
    }

    /// Sabotage epoch fencing: when set, stale-epoch writes are accepted
    /// and `Cluster::zombie_put` acks writes it should reject: a lost
    /// acked write the checkers must catch.
    pub fn sabotage_fencing(&self, on: bool) {
        self.disable_fencing.store(on, Ordering::SeqCst);
    }

    /// True while the fencing sabotage is on.
    pub fn fencing_sabotaged(&self) -> bool {
        self.disable_fencing.load(Ordering::SeqCst)
    }
}

/// The error an injected engine fault surfaces as: indistinguishable from
/// a real failed syscall, so every layer above exercises its genuine error
/// path.
pub(crate) fn injected_error(what: &str) -> crate::LsmError {
    crate::LsmError::Io(std::io::Error::other(format!("injected fault: {what}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use FaultPoint::*;

    #[test]
    fn armed_counts_are_consumed_exactly() {
        let p = FaultPlan::default();
        assert!(!p.take(WalFsync));
        p.arm(WalFsync, 2);
        p.arm(WalFsync, 1);
        assert!(p.take(WalFsync));
        assert!(p.take(WalFsync));
        assert!(p.take(WalFsync));
        assert!(!p.take(WalFsync));
        assert!(!p.anything_armed());
    }

    #[test]
    fn crash_trigger_fires_once() {
        let p = FaultPlan::default();
        assert!(!p.take(CrashMidPut));
        p.arm(CrashMidPut, 1);
        assert!(p.anything_armed());
        assert!(p.take(CrashMidPut));
        assert!(!p.take(CrashMidPut));
    }

    #[test]
    fn disarm_clears_everything() {
        let p = FaultPlan::default();
        p.arm(WalFsync, 5);
        p.arm(WalAppend, 5);
        p.arm(CrashMidPut, 1);
        assert!(p.anything_armed());
        p.disarm_all();
        assert!(!p.anything_armed());
        for point in [WalFsync, WalAppend, CrashMidPut] {
            assert!(!p.take(point));
        }
    }

    /// A pending dropped response is an armed fault like any other:
    /// `anything_armed` sees it and `disarm_all` clears it, together with
    /// the engine-level faults.
    #[test]
    fn disarm_covers_both_levels() {
        let p = FaultPlan::default();
        p.arm(DropResponse(2), 1);
        assert!(p.anything_armed());
        p.arm(WalFsync, 3);
        p.disarm_all();
        assert!(!p.anything_armed());
        assert!(!p.take(DropResponse(2)));
        assert!(!p.take(WalFsync));
    }

    #[test]
    fn kinds_are_independent() {
        let p = FaultPlan::default();
        p.arm(WalAppend, 1);
        p.arm(DropResponse(1), 1);
        assert!(!p.take(WalFsync));
        assert!(!p.take(DropResponse(0)));
        assert!(p.take(WalAppend));
        assert!(p.anything_armed(), "server 1's drop is still armed");
        assert!(p.take(DropResponse(1)));
        assert!(!p.anything_armed());
    }

    /// The data path calls `take` on every put, WAL append, fsync and
    /// network response: unarmed, it must not touch the lock.
    #[test]
    fn unarmed_take_does_not_lock() {
        let p = std::sync::Arc::new(FaultPlan::default());
        let held = p.armed.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        let taker = std::sync::Arc::clone(&p);
        std::thread::spawn(move || {
            let fired = [WalFsync, WalAppend, CrashMidPut, DropResponse(0)]
                .into_iter()
                .any(|point| taker.take(point));
            let _ = tx.send(fired);
        });
        let fired = rx.recv_timeout(std::time::Duration::from_secs(10));
        drop(held);
        assert_eq!(fired, Ok(false), "an unarmed take blocked on the lock or fired");
    }

    #[test]
    fn sabotage_survives_disarm_all() {
        let p = FaultPlan::default();
        p.sabotage_delta(true);
        p.sabotage_fencing(true);
        p.disarm_all();
        assert!(p.delta_sabotaged() && p.fencing_sabotaged());
        assert!(!p.anything_armed(), "sabotage is configuration, not an armed fault");
    }
}
