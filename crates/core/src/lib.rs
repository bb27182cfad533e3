//! # diff-index-core
//!
//! Reproduction of **Diff-Index: Differentiated Index in Distributed
//! Log-Structured Data Stores** (Tan, Tata, Tang, Fong — EDBT 2014): a
//! spectrum of global secondary-index maintenance schemes for distributed
//! LSM stores, trading index consistency against update/read latency under
//! the CAP theorem.
//!
//! The four schemes (§3.4, Figure 4):
//!
//! | scheme | update path | read path | consistency |
//! |---|---|---|---|
//! | [`IndexScheme::SyncFull`]   | `PB` + `PI`,`RB`,`DI` sync | 1 index read | causal |
//! | [`IndexScheme::SyncInsert`] | `PB` + `PI` sync | index read + K base checks (read-repair) | causal w/ read-repair |
//! | [`IndexScheme::AsyncSimple`]| `PB` + AUQ enqueue | 1 index read (maybe stale) | eventual |
//! | [`IndexScheme::AsyncSession`]| as async + session cache | merged with session state | session (read-your-writes) |
//!
//! ## Quick example
//!
//! ```
//! use diff_index_cluster::{Cluster, ClusterOptions};
//! use diff_index_core::{DiffIndex, IndexScheme, IndexSpec};
//! use bytes::Bytes;
//!
//! let dir = tempdir_lite::TempDir::new("doc").unwrap();
//! let cluster = Cluster::new(dir.path(), ClusterOptions::default()).unwrap();
//! cluster.create_table("reviews", 4).unwrap();
//! let di = DiffIndex::new(cluster.clone());
//! di.create_index(
//!     IndexSpec::single("by_product", "reviews", "product_id", IndexScheme::SyncFull),
//!     4,
//! ).unwrap();
//! cluster.put("reviews", b"rev1", &[(Bytes::from("product_id"), Bytes::from("p42"))]).unwrap();
//! let hits = di.get_by_index("reviews", "by_product", b"p42", 100).unwrap();
//! assert_eq!(hits[0].row, Bytes::from("rev1"));
//! ```

#![warn(missing_docs)]

pub mod admin;
pub mod auq;
pub mod cost;
pub mod encoding;
pub mod error;
pub mod history;
mod maintain;
pub mod observers;
pub mod read;
pub mod session;
pub mod spec;
pub mod store;
pub mod verify;

pub use admin::{DiffIndex, IndexHandle};
pub use auq::{Auq, AuqMetrics, IndexTask};
pub use cost::{index_update_latency, read_cost, update_cost, IoCost};
pub use error::{IndexError, Result};
pub use history::{History, RecordingStore, WriteKind, WriteOutcome, WriteRecord};
pub use read::IndexHit;
pub use session::{Session, SessionConfig};
pub use spec::{ConsistencyLevel, IndexScheme, IndexSpec};
pub use store::Store;
pub use verify::{cleanse_index, verify_index, Divergence, VerifyReport};
