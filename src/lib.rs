//! # diff-index
//!
//! Facade crate for the Diff-Index reproduction (EDBT 2014, Tan et al.):
//! differentiated secondary-index maintenance in distributed log-structured
//! data stores. Re-exports the workspace crates:
//!
//! * [`core`] — the paper's contribution: the four index maintenance
//!   schemes, AUQ/APS, session consistency, failure recovery.
//! * [`cluster`] — the HBase-like multi-region substrate.
//! * [`lsm`] — the from-scratch LSM storage engine.
//! * [`btree`] — the B+Tree baseline (Table 1).
//! * [`sim`] — the discrete-event cluster simulator behind the figures.
//! * [`ycsb`] — the extended YCSB workload generator.
//! * [`net`] — the TCP wire protocol, region-server frontend, and remote
//!   store client.

#![forbid(unsafe_code)]

pub use diff_index_btree as btree;
pub use diff_index_cluster as cluster;
pub use diff_index_core as core;
pub use diff_index_lsm as lsm;
pub use diff_index_net as net;
pub use diff_index_sim as sim;
pub use diff_index_ycsb as ycsb;
