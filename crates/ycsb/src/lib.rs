//! # diff-index-ycsb
//!
//! YCSB-style workload tooling for the Diff-Index reproduction: the paper's
//! extended `item`-table workload (§8.1 — 10 columns, indexed `item_title`
//! and `item_price`, ≈1 KB rows), YCSB key distributions (uniform, zipfian,
//! scrambled-zipfian, latest), a closed-loop multi-threaded driver, and
//! log-bucketed latency histograms.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod driver;
pub mod generator;
pub mod histogram;
pub mod workload;

pub use driver::{run, DriverConfig, DriverReport, Target};
pub use generator::{KeyChooser, Latest, ScrambledZipfian, Uniform, Zipfian};
pub use histogram::Histogram;
pub use workload::{ItemWorkload, OpMix};
