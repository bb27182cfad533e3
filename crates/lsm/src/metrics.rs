//! Operation counters for the engine.
//!
//! These are the evidence behind Table 2 of the paper: the experiment harness
//! snapshots counters around an index update / index read and compares the
//! observed `(Base Put, Base Read, Index Put, Index Read)` counts against the
//! analytic table in `diff-index-core`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Declares a set of `u64` counters as two types: a live one whose fields
/// are `AtomicU64`s bumped lock-free, and a `Copy` snapshot of it taken by
/// the live type's `snapshot()`. Snapshots add and subtract field by field
/// (wrapping), so `after - before` is the delta over an interval.
///
/// Both type names are parameters, each with its own doc comment and
/// visibility; every counter's doc comment is copied onto both types.
///
/// ```
/// diff_index_lsm::counters! {
///     /// Live request counters.
///     pub struct Requests;
///     /// A point-in-time copy of [`Requests`].
///     pub struct RequestsSnapshot {
///         /// Requests served.
///         served,
///     }
/// }
/// let live = Requests::default();
/// live.served.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
/// assert_eq!((live.snapshot() - RequestsSnapshot::default()).served, 2);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$lm:meta])* $lvis:vis struct $live:ident;
        $(#[$sm:meta])* $svis:vis struct $snap:ident {
            $($(#[$fm:meta])+ $name:ident),+ $(,)?
        }
    ) => {
        $(#[$lm])*
        #[derive(Debug, Default)]
        $lvis struct $live {
            $($(#[$fm])+ pub $name: ::std::sync::atomic::AtomicU64,)+
        }

        impl $live {
            /// Snapshot all counters at once.
            pub fn snapshot(&self) -> $snap {
                $snap { $($name: self.$name.load(::std::sync::atomic::Ordering::Relaxed),)+ }
            }
        }

        $(#[$sm])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $svis struct $snap {
            $($(#[$fm])+ pub $name: u64,)+
        }

        impl ::std::ops::Sub for $snap {
            type Output = $snap;
            fn sub(self, rhs: $snap) -> $snap {
                $snap { $($name: self.$name.wrapping_sub(rhs.$name),)+ }
            }
        }

        impl ::std::ops::Add for $snap {
            type Output = $snap;
            fn add(self, rhs: $snap) -> $snap {
                $snap { $($name: self.$name.wrapping_add(rhs.$name),)+ }
            }
        }
    };
}

counters! {
    /// Cumulative engine counters. All methods are lock-free.
    pub struct Metrics;
    /// Point-in-time copy of [`Metrics`]; subtract two snapshots to get
    /// per-interval deltas.
    pub struct MetricsSnapshot {
        /// Cells written via `put` (tombstones excluded).
        puts,
        /// Tombstones written via `delete`.
        deletes,
        /// Point reads (`get` / `get_versioned`).
        gets,
        /// Range scans started.
        scans,
        /// WAL record appends.
        wal_appends,
        /// WAL fsyncs (group commits + segment rolls). With group commit many
        /// appends share one fsync, so `wal_appends / wal_fsyncs` is the
        /// effective commit batch size.
        wal_fsyncs,
        /// WAL records made durable by group-commit fsyncs; divided by
        /// `wal_fsyncs` this is the mean group-commit batch size.
        group_commit_records,
        /// WAL segments whose replay at open ended in a torn (incomplete or
        /// corrupt) record: a crash mid-append. A zero-filled tail is a
        /// clean end and does not count.
        wal_torn_tails,
        /// Memtable flushes completed.
        flushes,
        /// Compactions completed.
        compactions,
        /// Bytes written to SSTables by flushes.
        bytes_flushed,
        /// Bytes written to SSTables by compactions.
        bytes_compacted,
        /// SSTables consulted by point reads (read amplification numerator).
        tables_probed,
        /// SSTable probes skipped thanks to bloom filters / key ranges.
        tables_skipped,
        /// Cells dropped by compaction garbage collection.
        gc_dropped_cells,
        /// Data-block reads served from the block cache.
        block_cache_hits,
        /// Data-block reads that had to hit disk and decode.
        block_cache_misses,
        /// Blocks evicted from the cache to stay within its byte budget.
        block_cache_evictions,
    }
}

impl Metrics {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment a counter by 1.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment a counter by `n`.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

impl MetricsSnapshot {
    /// Mean number of WAL records made durable per group-commit fsync —
    /// the write path's batching factor (1.0 means no batching happened).
    pub fn mean_group_commit(&self) -> f64 {
        if self.wal_fsyncs == 0 {
            0.0
        } else {
            self.group_commit_records as f64 / self.wal_fsyncs as f64
        }
    }

    /// Cells (puts + tombstones) made durable per WAL fsync.
    pub fn puts_per_fsync(&self) -> f64 {
        if self.wal_fsyncs == 0 {
            0.0
        } else {
            (self.puts + self.deletes) as f64 / self.wal_fsyncs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_delta() {
        let m = Metrics::new();
        Metrics::bump(&m.puts);
        Metrics::bump(&m.puts);
        Metrics::add(&m.bytes_flushed, 100);
        let s1 = m.snapshot();
        assert_eq!(s1.puts, 2);
        assert_eq!(s1.bytes_flushed, 100);
        Metrics::bump(&m.puts);
        let s2 = m.snapshot();
        let d = s2 - s1;
        assert_eq!(d.puts, 1);
        assert_eq!(d.bytes_flushed, 0);
    }

    #[test]
    fn default_is_zero() {
        let s = Metrics::new().snapshot();
        assert_eq!(s, MetricsSnapshot::default());
    }
}
