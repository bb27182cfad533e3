//! # chaos
//!
//! A seeded, deterministic chaos harness for the Diff-Index stack.
//!
//! One **seed** fully determines one scenario: a randomized client workload
//! (puts, deletes, batched puts, index reads, session reads) against a
//! multi-region cluster — driven in-process or over the `net` loopback
//! stack — interleaved with a fault schedule derived from the same seed:
//! region-server crashes mid-put, WAL-fsync and WAL-append failures,
//! connection kills between request and ack, dropped responses, outright
//! server crashes, zombie resurrections, flush/compaction races, and AUQ
//! worker stalls.
//!
//! Nobody schedules a recovery: the runner ticks a master-side
//! [`diff_index_cluster::HealthMonitor`] once per step (probing over real
//! TCP in net mode), so crashed servers are declared dead and healed —
//! regions reassigned under bumped fencing epochs, WALs replayed, the
//! process restarted — exactly as a production master would do it, and the
//! client's partition map goes stale in net mode as a side effect. A
//! resurrected zombie still holding its crash-time region view must have
//! its writes fenced (`StaleEpoch`); with fencing sabotaged
//! ([`RunOptions::violate_fencing`]) its lost acked write must be caught by
//! the checkers.
//!
//! Every client write is recorded into a
//! [`diff_index_core::History`]; after the scenario quiesces, per-scheme
//! checkers validate (see [`checker`]):
//!
//! * **no lost acked writes, ever** — the final base state of every cell
//!   must be a value the history allows;
//! * **index/base agreement after quiesce** — `verify_index` must report
//!   zero missing entries for every scheme, and zero stale entries for
//!   every scheme except `sync-insert` (which leaves stale entries by
//!   design and cleans them at read time);
//! * **read-your-writes within a session** (`async-session`), and inline
//!   exact-match reads on fault-free seeds (`sync-full`, `sync-insert`);
//! * **bounded-staleness convergence** — after the AUQ drains, exact-match
//!   index reads agree with the base for every value in the alphabet, and
//!   no AUQ task was dropped.
//!
//! A violation is reproducible by re-running its single failing seed:
//! `cargo run -p chaos -- --seed N --scheme S [--net]`.

#![forbid(unsafe_code)]

pub mod checker;
pub mod rng;
pub mod runner;
pub mod schedule;

pub use checker::Violation;
pub use rng::SplitMix64;
pub use runner::{run_seed, RunOptions, RunOutcome};
pub use schedule::{generate, Fault, Mode, Schedule, Step, StepOp, HEAL_STEPS};
