//! # diff-index-lsm
//!
//! A from-scratch Log-Structured-Merge (LSM) tree storage engine, built as
//! the storage substrate for the Diff-Index reproduction (EDBT 2014,
//! Tan et al.). It mirrors the abstract LSM model of the paper's §2:
//!
//! * an in-memory, append-only, multi-version **memtable**;
//! * a **write-ahead log** giving durability to unflushed data;
//! * immutable on-disk **SSTables** produced by memtable flushes;
//! * periodic **compaction** consolidating versions and purging tombstones;
//! * `put` is a blind upsert (insert and update are indistinguishable), a
//!   delete is a tombstone write, and reads are *much* slower than writes —
//!   the three properties Diff-Index is designed around.
//!
//! ## Quick example
//!
//! ```
//! use diff_index_lsm::{LsmTree, LsmOptions};
//! let dir = tempdir_lite::TempDir::new("doc").unwrap();
//! let db = LsmTree::open(dir.path(), LsmOptions::default()).unwrap();
//! db.put("user#42", 100, "alice").unwrap();
//! db.put("user#42", 200, "alice v2").unwrap();
//! assert_eq!(db.get_latest(b"user#42").unwrap().unwrap().value.as_ref(), b"alice v2");
//! // Multi-version snapshot read (the paper's RB(k, t - delta)):
//! assert_eq!(db.get(b"user#42", 199).unwrap().unwrap().value.as_ref(), b"alice");
//! ```

#![warn(missing_docs)]
// The one `unsafe` module is the CRC kernel, `util::clmul`.
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod bloom;
pub mod cache;
pub mod compaction;
pub mod engine;
pub mod faults;
pub mod memtable;
pub mod merge;
pub mod metrics;
pub mod sstable;
pub mod types;
pub mod util;
pub mod wal;

pub use cache::BlockCache;
pub use engine::{FlushHook, GroupsHook, KeyGroups, LsmOptions, LsmTree, WriteHandle};
pub use faults::{FaultPlan, FaultPoint};
pub use metrics::{Metrics, MetricsSnapshot};
pub use sstable::{Block, TableOptions};
pub use types::{Cell, CellKind, InternalKey, LsmError, Result, Timestamp, VersionedValue, DELTA};
