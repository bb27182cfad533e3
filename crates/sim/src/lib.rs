//! # diff-index-sim
//!
//! A deterministic discrete-event simulation of the paper's experimental
//! clusters (the 8-server in-house cluster of §8.1 and the 40-VM RC2 cloud
//! of Figure 10), used to regenerate every latency/throughput/staleness
//! figure of the evaluation.
//!
//! Why simulate? The figures' content is *queueing behaviour* — how each
//! scheme's per-operation work (Table 2) turns into latency as servers
//! approach saturation, and how the AUQ's deferred work competes with
//! foreground traffic. A calibrated event-driven model of FIFO region
//! servers reproduces those shapes deterministically on any machine, which
//! is exactly what a reproduction needs (the absolute milliseconds of
//! 2013-era Xeons are not reproducible on principle). The correctness of
//! the schemes themselves is established against the *real* engine in
//! `diff-index-core`'s tests; the simulator reuses the same scheme
//! definitions via [`diff_index_core::IndexScheme`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod experiments;
pub mod ops;

pub use config::SimConfig;
pub use engine::{RunResult, Sim};
pub use experiments::{
    client_sweep, range_query_sweep, read_curves, staleness_sweep, update_curves, Curve,
    CurvePoint, RangePoint, StalenessPoint, DEFAULT_DURATION_US,
};
pub use ops::{exact_read_op, range_read_op, update_op, OpTemplate, Step, StepKind};
