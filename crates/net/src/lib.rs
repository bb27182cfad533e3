//! # diff-index-net
//!
//! The TCP network layer for the Diff-Index reproduction: a compact binary
//! wire protocol ([`wire`]), a region-server frontend ([`Server`] /
//! [`ServerGroup`]) with pipelined dispatch, per-opcode metrics and
//! graceful drain-before-stop shutdown, and a routing, retrying
//! [`RemoteClient`] that implements the index layer's
//! [`Store`](diff_index_core::Store) trait — so schemes, sessions,
//! verification and the YCSB driver run unchanged over a real socket.
//!
//! Everything is built on `std::net` + threads; there is no async runtime
//! and no external dependency.
//!
//! ```no_run
//! use diff_index_cluster::{Cluster, ClusterOptions};
//! use diff_index_core::DiffIndex;
//! use diff_index_net::{RemoteClient, ServerGroup};
//! use std::sync::Arc;
//!
//! let cluster = Cluster::new("/tmp/data", ClusterOptions::default()).unwrap();
//! let di = DiffIndex::new(cluster);
//! let group = ServerGroup::start(&di).unwrap();           // one listener per region server
//! let client = RemoteClient::connect_default(group.addrs()).unwrap();
//! let remote_di = DiffIndex::over_store(Arc::new(client)); // same API, over TCP
//! # drop(remote_di);
//! group.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod metrics;
pub mod server;
pub mod wire;

pub use client::RemoteClient;
pub use metrics::{NetMetricsSnapshot, OpMetricsSnapshot};
pub use server::{Roster, Server, ServerGroup};
pub use wire::OpCode;
