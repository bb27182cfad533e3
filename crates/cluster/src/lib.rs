//! # diff-index-cluster
//!
//! An in-process, multi-region, HBase-like distributed store built on the
//! [`diff_index_lsm`] engine — the substrate the Diff-Index schemes run on.
//!
//! What it models (paper §2.2, Figure 3):
//!
//! * tables partitioned into **regions** by key range, each region one LSM
//!   tree with its own WAL;
//! * **region servers** hosting regions, each with a monotonic
//!   millisecond timestamp oracle;
//! * a **client library** that routes requests by cached partition map;
//! * **coprocessors** ([`TableObserver`]) intercepting puts (one call per
//!   batch for batched puts), deletes,
//!   flushes and WAL replays — the extension point Diff-Index plugs into;
//! * **failure injection + master recovery**: crash a server, reassign its
//!   regions, recover their state by WAL replay.
//!
//! Durability is real (files + WAL on disk); the network is not simulated
//! here — region-level operations are counted as RPC proxies, and the
//! latency model lives in `diff-index-sim`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod cluster;
pub mod coproc;
pub mod encoding;
pub mod error;
pub mod fanout;
pub mod health;
pub mod keyspace;

pub use cluster::{
    Cluster, ClusterOptions, DispatchSnapshot, FailedGroups, PutOutcome, RecoveryStats, RowGroup,
    WeakCluster, Write,
};
pub use coproc::{ColumnValue, ReplayedOp, TableObserver};
pub use fanout::FanoutPool;
pub use error::{ClusterError, Result};
pub use diff_index_lsm::{FaultPlan, FaultPoint};
pub use health::{HealthMetrics, HealthMonitor, HealthOptions, HealthState};
pub use keyspace::{PartitionMap, RegionId, RegionSpec, ServerId};
