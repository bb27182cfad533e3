//! # diff-index-btree
//!
//! A paged, on-disk B+Tree with **in-place updates** and a distinguished
//! insert-vs-update API — the baseline engine for Table 1 of the Diff-Index
//! paper (LSM vs. B-Tree). See [`BTree`].
//!
//! ```
//! use diff_index_btree::BTree;
//! let dir = tempdir_lite::TempDir::new("doc").unwrap();
//! let t = BTree::open(dir.path().join("t.db"), 256).unwrap();
//! assert_eq!(t.insert(b"k", b"v1").unwrap(), None);          // insert
//! assert_eq!(t.insert(b"k", b"v2").unwrap(), Some(b"v1".to_vec())); // update returns old
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod node;
pub mod pager;
pub mod tree;

pub use pager::{Pager, PAGE_SIZE};
pub use tree::BTree;
