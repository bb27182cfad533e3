//! Index verification and cleansing — the "utility for index creation,
//! maintenance and cleanse" of §7.
//!
//! An index can drift from its base table: `sync-insert` leaves stale
//! entries by design, crashes can abandon AUQ work beyond the retry budget,
//! and operators occasionally just want proof. [`verify_index`] scans both
//! tables and reports every divergence; [`cleanse_index`] repairs them
//! (delete stale entries, insert missing ones) with the correct base
//! timestamps, preserving the §4.3 invariant.

use crate::encoding::{decode_index_row, index_row};
use crate::error::Result;
use crate::maintain;
use crate::spec::IndexSpec;
use crate::store::Store;
use bytes::Bytes;
use std::collections::BTreeMap;

/// One divergence between index and base.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// The index holds an entry whose base row no longer carries that value.
    Stale {
        /// The stale index row key.
        index_row: Bytes,
        /// Base row it points at.
        base_row: Bytes,
        /// Timestamp of the stale entry.
        ts: u64,
    },
    /// A fully indexed base row has no index entry.
    Missing {
        /// The index row key that should exist.
        index_row: Bytes,
        /// Base row missing from the index.
        base_row: Bytes,
        /// Timestamp the entry should carry (max ts of the indexed columns).
        ts: u64,
    },
}

/// Outcome of a verification pass.
#[derive(Debug, Default)]
pub struct VerifyReport {
    /// Index entries checked.
    pub entries_checked: u64,
    /// Base rows checked.
    pub rows_checked: u64,
    /// All divergences found.
    pub divergences: Vec<Divergence>,
}

impl VerifyReport {
    /// True if index and base agree exactly.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Number of stale entries found.
    pub fn stale_count(&self) -> usize {
        self.divergences.iter().filter(|d| matches!(d, Divergence::Stale { .. })).count()
    }

    /// Number of missing entries found.
    pub fn missing_count(&self) -> usize {
        self.divergences.iter().filter(|d| matches!(d, Divergence::Missing { .. })).count()
    }
}

/// Compare `spec`'s index table against its base table and report every
/// stale and missing entry. Read-only.
pub fn verify_index(store: &dyn Store, spec: &IndexSpec) -> Result<VerifyReport> {
    let mut report = VerifyReport::default();
    let index_table = spec.index_table();

    // Expected index rows from the base table.
    let mut expected: BTreeMap<Bytes, u64> = BTreeMap::new();
    let rows = store.scan_rows(&spec.base_table, b"", None, u64::MAX, usize::MAX)?;
    for (row, cols) in rows {
        report.rows_checked += 1;
        let entry = maintain::index_values(spec, |ic| {
            Ok(cols.iter().find(|(c, _)| c == ic).map(|(_, v)| v.clone()))
        })?;
        if let Some((values, ts)) = entry {
            expected.insert(index_row(&values, &row), ts);
        }
    }

    // Actual index rows.
    let actual = store.scan_rows(&index_table, b"", None, u64::MAX, usize::MAX)?;
    let mut seen: BTreeMap<Bytes, u64> = BTreeMap::new();
    for (key, cols) in actual {
        report.entries_checked += 1;
        let ts = cols.first().map(|(_, v)| v.ts).unwrap_or(0);
        seen.insert(key.clone(), ts);
        if !expected.contains_key(&key) {
            if let Some((_, base_row)) = decode_index_row(&key, spec.columns.len()) {
                report.divergences.push(Divergence::Stale { index_row: key, base_row, ts });
            }
        }
    }
    for (key, ts) in expected {
        if !seen.contains_key(&key) {
            if let Some((_, base_row)) = decode_index_row(&key, spec.columns.len()) {
                report.divergences.push(Divergence::Missing { index_row: key, base_row, ts });
            }
        }
    }
    Ok(report)
}

/// Repair every divergence reported by [`verify_index`]: delete stale
/// entries (at their own timestamp, exactly as read-repair does) and insert
/// missing ones (at the base entry's timestamp). Returns the repair count.
pub fn cleanse_index(store: &dyn Store, spec: &IndexSpec) -> Result<usize> {
    let report = verify_index(store, spec)?;
    let index_table = spec.index_table();
    let n = report.divergences.len();
    for d in report.divergences {
        match d {
            Divergence::Stale { index_row, ts, .. } => {
                maintain::delete_entry(store, spec, &index_row, ts)?;
            }
            Divergence::Missing { index_row, base_row, ts } => {
                // Re-derive the values defensively (the base may have moved
                // on since the scan) and only insert if still current.
                if let Some(vals) = maintain::values_at(store, spec, &base_row, &[], u64::MAX)? {
                    let current = crate::encoding::index_row(&vals, &base_row);
                    if current == index_row {
                        // Administrative repair must out-time whatever
                        // shadows the entry: the entry may be missing
                        // precisely because a stray tombstone is newer than
                        // the base timestamp, so a repair at the old ts
                        // would stay invisible. Normal maintenance never
                        // does this (§4.3); a later base update still
                        // supersedes the repaired entry because its
                        // timestamps are newer still.
                        let shadow = store
                            .get_cell_versioned(&index_table, &index_row, b"", u64::MAX)?
                            .map(|(sts, _)| sts)
                            .unwrap_or(0);
                        maintain::put_entry(store, spec, &index_row, shadow.max(ts) + 1)?;
                    }
                }
            }
        }
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admin::DiffIndex;
    use crate::spec::IndexScheme;
    use diff_index_cluster::{Cluster, ClusterOptions};
    use tempdir_lite::TempDir;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn setup(scheme: IndexScheme) -> (TempDir, Cluster, DiffIndex, std::sync::Arc<IndexSpec>) {
        let dir = TempDir::new("verify").unwrap();
        let cluster = Cluster::new(dir.path(), ClusterOptions::default()).unwrap();
        cluster.create_table("t", 2).unwrap();
        let di = DiffIndex::new(cluster.clone());
        let h = di.create_index(IndexSpec::single("ix", "t", "c", scheme), 2).unwrap();
        let spec = std::sync::Arc::clone(&h.spec);
        (dir, cluster, di, spec)
    }

    #[test]
    fn clean_index_verifies_clean() {
        let (_d, cluster, di, spec) = setup(IndexScheme::SyncFull);
        for i in 0..20 {
            cluster.put("t", format!("r{i}").as_bytes(), &[(b("c"), b("v"))]).unwrap();
        }
        di.quiesce("t");
        let r = verify_index(&cluster, &spec).unwrap();
        assert!(r.is_clean(), "{:?}", r.divergences);
        assert_eq!(r.entries_checked, 20);
        assert_eq!(r.rows_checked, 20);
    }

    #[test]
    fn sync_insert_staleness_is_detected_and_cleansed() {
        let (_d, cluster, di, spec) = setup(IndexScheme::SyncInsert);
        cluster.put("t", b"r1", &[(b("c"), b("old"))]).unwrap();
        cluster.put("t", b"r1", &[(b("c"), b("new"))]).unwrap();
        di.quiesce("t");
        let r = verify_index(&cluster, &spec).unwrap();
        assert_eq!(r.stale_count(), 1);
        assert_eq!(r.missing_count(), 0);
        let fixed = cleanse_index(&cluster, &spec).unwrap();
        assert_eq!(fixed, 1);
        assert!(verify_index(&cluster, &spec).unwrap().is_clean());
    }

    #[test]
    fn missing_entry_is_detected_and_restored() {
        let (_d, cluster, di, spec) = setup(IndexScheme::SyncFull);
        let ts = cluster.put("t", b"r1", &[(b("c"), b("v"))]).unwrap();
        di.quiesce("t");
        // Sabotage: delete the index entry behind Diff-Index's back.
        let key = index_row(&[b("v")], b"r1");
        cluster.raw_delete(&spec.index_table(), &key, &[Bytes::new()], ts + 10).unwrap();
        let r = verify_index(&cluster, &spec).unwrap();
        assert_eq!(r.missing_count(), 1);
        cleanse_index(&cluster, &spec).unwrap();
        // The restored entry must be visible again...
        let hits = di.get_by_index("t", "ix", b"v", 10).unwrap();
        assert_eq!(hits.len(), 1);
        // NOTE: the sabotage tombstone was written at ts+10; cleanse
        // restores with a fresh read — verify clean now.
        assert!(verify_index(&cluster, &spec).unwrap().is_clean());
    }

    #[test]
    fn verify_counts_both_directions_at_once() {
        let (_d, cluster, di, spec) = setup(IndexScheme::SyncInsert);
        cluster.put("t", b"r1", &[(b("c"), b("a"))]).unwrap();
        cluster.put("t", b"r1", &[(b("c"), b("b"))]).unwrap(); // stale "a"
        let ts = cluster.put("t", b"r2", &[(b("c"), b("x"))]).unwrap();
        di.quiesce("t");
        let key = index_row(&[b("x")], b"r2");
        cluster.raw_delete(&spec.index_table(), &key, &[Bytes::new()], ts + 1).unwrap(); // missing "x"
        let r = verify_index(&cluster, &spec).unwrap();
        assert_eq!(r.stale_count(), 1);
        assert_eq!(r.missing_count(), 1);
        assert_eq!(cleanse_index(&cluster, &spec).unwrap(), 2);
        assert!(verify_index(&cluster, &spec).unwrap().is_clean());
    }

    #[test]
    fn empty_tables_are_clean() {
        let (_d, cluster, _di, spec) = setup(IndexScheme::SyncFull);
        let r = verify_index(&cluster, &spec).unwrap();
        assert!(r.is_clean());
        assert_eq!(r.rows_checked, 0);
        assert_eq!(cleanse_index(&cluster, &spec).unwrap(), 0);
    }
}
