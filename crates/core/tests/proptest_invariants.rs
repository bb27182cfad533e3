//! Property-based invariants of Diff-Index:
//!
//! 1. index-row encoding round-trips and preserves tuple order;
//! 2. under arbitrary put/delete sequences (with random flushes and
//!    crash/recover cycles), every scheme converges to an index that is
//!    exactly the projection of the base table, for single-column and
//!    two-column composite indexes;
//! 3. a session always observes its own writes.

use bytes::Bytes;
use diff_index_cluster::{Cluster, ClusterOptions};
use diff_index_core::encoding::{decode_index_row, index_row, value_prefix};
use diff_index_core::{DiffIndex, IndexScheme, IndexSpec};
use diff_index_lsm::{LsmOptions, TableOptions};
use proptest::prelude::*;
use std::collections::BTreeMap;
use tempdir_lite::TempDir;

// --- encoding properties ----------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn index_row_roundtrip(
        values in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..20), 1..4),
        row in prop::collection::vec(any::<u8>(), 0..20)
    ) {
        let vals: Vec<Bytes> = values.iter().map(|v| Bytes::from(v.clone())).collect();
        let key = index_row(&vals, &row);
        let (got_vals, got_row) = decode_index_row(&key, vals.len()).unwrap();
        prop_assert_eq!(got_vals, vals);
        prop_assert_eq!(got_row.as_ref(), row.as_slice());
    }

    #[test]
    fn index_row_order_matches_tuple_order(
        a_val in prop::collection::vec(any::<u8>(), 0..12),
        a_row in prop::collection::vec(any::<u8>(), 0..12),
        b_val in prop::collection::vec(any::<u8>(), 0..12),
        b_row in prop::collection::vec(any::<u8>(), 0..12)
    ) {
        let ka = index_row(&[Bytes::from(a_val.clone())], &a_row);
        let kb = index_row(&[Bytes::from(b_val.clone())], &b_row);
        let tuple_cmp = (a_val.clone(), a_row.clone()).cmp(&(b_val.clone(), b_row.clone()));
        prop_assert_eq!(ka.cmp(&kb), tuple_cmp,
            "encoding must sort exactly like the (value, row) tuple");
    }

    #[test]
    fn value_prefix_covers_exactly_that_value(
        val in prop::collection::vec(any::<u8>(), 0..12),
        other in prop::collection::vec(any::<u8>(), 0..12),
        row in prop::collection::vec(any::<u8>(), 0..12)
    ) {
        let p = value_prefix(&val);
        let same = index_row(&[Bytes::from(val.clone())], &row);
        prop_assert!(same.starts_with(&p));
        if other != val {
            let diff = index_row(&[Bytes::from(other.clone())], &row);
            prop_assert!(!diff.starts_with(&p),
                "prefix for {:?} must not cover value {:?}", val, other);
        }
    }
}

// --- convergence properties ---------------------------------------------------

#[derive(Debug, Clone)]
enum Action {
    Put { row: u8, value: u8 },
    PutBatch { rows: Vec<(u8, u8)> },
    Delete { row: u8 },
    Flush,
    CrashRecover { server: u8 },
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        8 => (any::<u8>(), any::<u8>()).prop_map(|(row, value)| Action::Put {
            row: row % 12,
            value: value % 6,
        }),
        2 => prop::collection::vec((any::<u8>(), any::<u8>()), 2..6).prop_map(|pairs| {
            // Distinct rows within a batch, so the final value per row is
            // defined by the batch contents alone.
            let mut rows: Vec<(u8, u8)> = Vec::new();
            for (r, v) in pairs {
                let r = r % 12;
                if !rows.iter().any(|(x, _)| *x == r) {
                    rows.push((r, v % 6));
                }
            }
            Action::PutBatch { rows }
        }),
        2 => any::<u8>().prop_map(|row| Action::Delete { row: row % 12 }),
        1 => Just(Action::Flush),
        1 => any::<u8>().prop_map(|server| Action::CrashRecover { server: server % 2 }),
    ]
}

/// Convergence cases scale with `PROPTEST_CASES` (each case builds a full
/// cluster, so run 1/16th of the cheap-property count, floor 12).
fn conv_config() -> ProptestConfig {
    let base = ProptestConfig::default();
    ProptestConfig { cases: (base.cases / 16).max(12), ..base }
}

fn small_lsm() -> LsmOptions {
    LsmOptions {
        memtable_flush_bytes: 2048,
        table: TableOptions { block_size: 256, bloom_bits_per_key: 10 },
        compaction_trigger: 3,
        version_retention: u64::MAX,
        ..LsmOptions::default()
    }
}

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

fn run_convergence(scheme: IndexScheme, actions: &[Action]) -> Result<(), TestCaseError> {
    let dir = TempDir::new("prop-conv").unwrap();
    let cluster = Cluster::new(
        dir.path(),
        ClusterOptions { num_servers: 2, lsm: small_lsm() },
    )
    .unwrap();
    cluster.create_table("t", 4).unwrap();
    let di = DiffIndex::new(cluster.clone());
    di.create_index(IndexSpec::single("ix", "t", "c", scheme), 4).unwrap();

    // Ground truth: row -> current value.
    let mut truth: BTreeMap<String, String> = BTreeMap::new();
    for a in actions {
        match a {
            Action::Put { row, value } => {
                let r = format!("row{row:02}");
                let v = format!("val{value}");
                // A put may transiently fail if it routes to a crashed
                // server mid-sequence; we always recover first, so unwrap.
                cluster.put("t", r.as_bytes(), &[(b("c"), b(&v))]).unwrap();
                truth.insert(r, v);
            }
            Action::PutBatch { rows } => {
                let batch: Vec<(Bytes, Vec<(Bytes, Bytes)>)> = rows
                    .iter()
                    .map(|(r, v)| {
                        (
                            Bytes::from(format!("row{r:02}")),
                            vec![(b("c"), b(&format!("val{v}")))],
                        )
                    })
                    .collect();
                cluster.put_batch("t", &batch).unwrap();
                for (r, v) in rows {
                    truth.insert(format!("row{r:02}"), format!("val{v}"));
                }
            }
            Action::Delete { row } => {
                let r = format!("row{row:02}");
                cluster.delete("t", r.as_bytes(), &[b("c")]).unwrap();
                truth.remove(&r);
            }
            Action::Flush => cluster.flush_table("t").unwrap(),
            Action::CrashRecover { server } => {
                cluster.crash_server(*server as u32);
                cluster.recover().unwrap();
                cluster.restart_server(*server as u32);
            }
        }
    }
    di.quiesce("t");
    assert_projection(&di, &truth)
}

/// The index must be exactly the projection of the base table: for every
/// value, get_by_index returns precisely the rows currently holding it.
fn assert_projection(
    di: &DiffIndex,
    truth: &BTreeMap<String, String>,
) -> Result<(), TestCaseError> {
    let mut expected: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (r, v) in truth {
        expected.entry(v.clone()).or_default().push(r.clone());
    }
    for value in 0..6u8 {
        let v = format!("val{value}");
        let hits = di.get_by_index("t", "ix", v.as_bytes(), 1000).unwrap();
        let mut got: Vec<String> =
            hits.iter().map(|h| String::from_utf8(h.row.to_vec()).unwrap()).collect();
        got.sort();
        let want = expected.get(&v).cloned().unwrap_or_default();
        prop_assert_eq!(got, want, "value {}", v);
    }
    Ok(())
}

// --- composite-index convergence ---------------------------------------------

/// An action on a two-column (`a`, `b`) composite index. `cols` selects the
/// columns a put writes or a delete removes: bit 0 is `a`, bit 1 is `b`.
#[derive(Debug, Clone)]
enum CompositeAction {
    Put { row: u8, cols: u8, a: u8, b: u8 },
    Delete { row: u8, cols: u8 },
    Flush,
    CrashRecover { server: u8 },
}

fn composite_action_strategy() -> impl Strategy<Value = CompositeAction> {
    prop_oneof![
        8 => (0u8..10, 1u8..4, 0u8..3, 0u8..3)
            .prop_map(|(row, cols, a, b)| CompositeAction::Put { row, cols, a, b }),
        2 => (0u8..10, 1u8..4).prop_map(|(row, cols)| CompositeAction::Delete { row, cols }),
        1 => Just(CompositeAction::Flush),
        1 => (0u8..2).prop_map(|server| CompositeAction::CrashRecover { server }),
    ]
}

/// Puts that write only one of the two columns make maintenance read the
/// other from the base table; after quiesce, the entries must still be
/// exactly the rows holding both columns, filed under their current values.
fn run_composite_convergence(
    scheme: IndexScheme,
    actions: &[CompositeAction],
) -> Result<(), TestCaseError> {
    let dir = TempDir::new("prop-composite").unwrap();
    let cluster = Cluster::new(
        dir.path(),
        ClusterOptions { num_servers: 2, lsm: small_lsm() },
    )
    .unwrap();
    cluster.create_table("t", 4).unwrap();
    let di = DiffIndex::new(cluster.clone());
    di.create_index(IndexSpec::composite("ix", "t", vec![b("a"), b("b")], scheme), 4).unwrap();

    // Ground truth: row -> (a, b), each column present or not.
    let mut truth: BTreeMap<String, [Option<String>; 2]> = BTreeMap::new();
    for action in actions {
        match action {
            CompositeAction::Put { row, cols, a, b: bv } => {
                let r = format!("row{row:02}");
                let cells = truth.entry(r.clone()).or_default();
                let mut columns = Vec::new();
                for (i, (name, value)) in
                    [("a", format!("a{a}")), ("b", format!("b{bv}"))].into_iter().enumerate()
                {
                    if cols & (1 << i) != 0 {
                        columns.push((b(name), b(&value)));
                        cells[i] = Some(value);
                    }
                }
                cluster.put("t", r.as_bytes(), &columns).unwrap();
            }
            CompositeAction::Delete { row, cols } => {
                let r = format!("row{row:02}");
                let cells = truth.entry(r.clone()).or_default();
                let mut columns = Vec::new();
                for (i, name) in ["a", "b"].into_iter().enumerate() {
                    if cols & (1 << i) != 0 {
                        columns.push(b(name));
                        cells[i] = None;
                    }
                }
                cluster.delete("t", r.as_bytes(), &columns).unwrap();
            }
            CompositeAction::Flush => cluster.flush_table("t").unwrap(),
            CompositeAction::CrashRecover { server } => {
                cluster.crash_server(*server as u32);
                cluster.recover().unwrap();
                cluster.restart_server(*server as u32);
            }
        }
    }
    di.quiesce("t");

    for a in 0..3u8 {
        let a = format!("a{a}");
        let hits = di.get_by_index("t", "ix", a.as_bytes(), 1000).unwrap();
        let mut got: Vec<(String, Vec<Bytes>)> = hits
            .iter()
            .map(|h| (String::from_utf8(h.row.to_vec()).unwrap(), h.values.clone()))
            .collect();
        got.sort();
        let want: Vec<(String, Vec<Bytes>)> = truth
            .iter()
            .filter_map(|(r, cells)| match cells {
                [Some(va), Some(vb)] if *va == a => Some((r.clone(), vec![b(va), b(vb)])),
                _ => None,
            })
            .collect();
        prop_assert_eq!(got, want, "{:?}: entries under {}", scheme, a);
    }
    Ok(())
}

proptest! {
    #![proptest_config(conv_config())]

    #[test]
    fn sync_full_converges(actions in prop::collection::vec(action_strategy(), 1..40)) {
        run_convergence(IndexScheme::SyncFull, &actions)?;
    }

    /// WAL group-commit interleavings: concurrent writers to the same
    /// region race through `stage → complete → wait_durable`, electing a
    /// sync leader per group; crash/recover between groups must replay
    /// every acked write exactly once (WAL fsync on, so durability is
    /// real, not buffered).
    #[test]
    fn group_commit_interleavings_converge(
        groups in prop::collection::vec(
            prop::collection::vec((0u8..24, 0u8..6), 1..8), 1..6),
        crash_mask in any::<u8>(),
    ) {
        let dir = TempDir::new("prop-gc").unwrap();
        let lsm = LsmOptions { wal_sync: true, ..small_lsm() };
        let cluster = Cluster::new(
            dir.path(),
            ClusterOptions { num_servers: 2, lsm },
        ).unwrap();
        cluster.create_table("t", 4).unwrap();
        let di = DiffIndex::new(cluster.clone());
        di.create_index(IndexSpec::single("ix", "t", "c", IndexScheme::SyncFull), 4).unwrap();

        let mut truth: BTreeMap<String, String> = BTreeMap::new();
        for (gi, group) in groups.iter().enumerate() {
            // Distinct rows per group so the concurrent outcome is defined.
            let mut batch: Vec<(u8, u8)> = Vec::new();
            for (r, v) in group {
                if !batch.iter().any(|(x, _)| x == r) {
                    batch.push((*r, *v));
                }
            }
            std::thread::scope(|s| {
                let handles: Vec<_> = batch
                    .iter()
                    .map(|(r, v)| {
                        let cluster = &cluster;
                        let row = format!("row{r:02}");
                        let val = format!("val{v}");
                        s.spawn(move || {
                            cluster.put("t", row.as_bytes(), &[(b("c"), b(&val))]).unwrap()
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }
            });
            for (r, v) in &batch {
                truth.insert(format!("row{r:02}"), format!("val{v}"));
            }
            if crash_mask & (1 << (gi % 8)) != 0 {
                let server = (gi % 2) as u32;
                cluster.crash_server(server);
                cluster.recover().unwrap();
                cluster.restart_server(server);
            }
        }
        di.quiesce("t");
        assert_projection(&di, &truth)?;
    }

    #[test]
    fn sync_insert_converges(actions in prop::collection::vec(action_strategy(), 1..40)) {
        run_convergence(IndexScheme::SyncInsert, &actions)?;
    }

    #[test]
    fn async_simple_converges(actions in prop::collection::vec(action_strategy(), 1..40)) {
        run_convergence(IndexScheme::AsyncSimple, &actions)?;
    }

    #[test]
    fn composite_sync_full_converges(
        actions in prop::collection::vec(composite_action_strategy(), 1..40)
    ) {
        run_composite_convergence(IndexScheme::SyncFull, &actions)?;
    }

    #[test]
    fn composite_sync_insert_converges(
        actions in prop::collection::vec(composite_action_strategy(), 1..40)
    ) {
        run_composite_convergence(IndexScheme::SyncInsert, &actions)?;
    }

    #[test]
    fn composite_async_simple_converges(
        actions in prop::collection::vec(composite_action_strategy(), 1..40)
    ) {
        run_composite_convergence(IndexScheme::AsyncSimple, &actions)?;
    }

    #[test]
    fn session_always_reads_its_own_writes(
        writes in prop::collection::vec((0u8..10, 0u8..5), 1..25)
    ) {
        let dir = TempDir::new("prop-sess").unwrap();
        let cluster = Cluster::new(
            dir.path(),
            ClusterOptions { num_servers: 2, lsm: small_lsm() },
        ).unwrap();
        cluster.create_table("t", 4).unwrap();
        let di = DiffIndex::new(cluster.clone());
        di.create_index(IndexSpec::single("ix", "t", "c", IndexScheme::AsyncSession), 4).unwrap();
        let session = di.session();
        let mut truth: BTreeMap<String, String> = BTreeMap::new();
        for (row, value) in &writes {
            let r = format!("row{row:02}");
            let v = format!("val{value}");
            session.put("t", r.as_bytes(), &[(b("c"), b(&v))]).unwrap();
            truth.insert(r.clone(), v.clone());
            // IMMEDIATELY readable in-session, no quiesce (read-your-writes).
            let hits = session.get_by_index("t", "ix", v.as_bytes(), 100).unwrap();
            prop_assert!(
                hits.iter().any(|h| h.row.as_ref() == r.as_bytes()),
                "session must see its own write {r}={v}"
            );
        }
        // Final in-session view is exactly the projection of truth.
        for value in 0..5u8 {
            let v = format!("val{value}");
            let hits = session.get_by_index("t", "ix", v.as_bytes(), 1000).unwrap();
            let mut got: Vec<String> =
                hits.iter().map(|h| String::from_utf8(h.row.to_vec()).unwrap()).collect();
            got.sort();
            let want: Vec<String> = truth
                .iter()
                .filter(|(_, tv)| **tv == v)
                .map(|(r, _)| r.clone())
                .collect();
            prop_assert_eq!(got, want, "final session view for {}", v);
        }
    }
}
