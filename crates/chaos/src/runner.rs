//! Scenario execution: build the environment a schedule asks for, drive
//! its steps, then repair, quiesce, and check.
//!
//! ## Self-healing
//!
//! Nothing in a schedule recovers a crashed server explicitly. The runner
//! owns a master-side [`HealthMonitor`] and ticks it once after every step
//! (in net mode probing over real TCP via `Ping`), so a `CrashServer`
//! fault is detected (`Healthy → Suspect → Dead`), its regions recovered
//! with bumped fencing epochs, and the server process restarted — all
//! within [`schedule::HEAL_STEPS`] steps, exactly as a production master
//! would do it. A `ResurrectZombie` fault then replays the classic
//! split-brain hazard: the healed server still holds its crash-time region
//! view, and only the epoch fence keeps its ack from becoming a lost
//! write.
//!
//! ## End-of-run phases (order matters)
//!
//! 1. **Un-wedge**: resume stalled AUQ workers and disarm the fault plan
//!    (pending response-drops included) — no armed fault may leak into
//!    verification.
//! 2. **Repair** (faulty schedules only): crash + recover every server in
//!    turn. WAL replay re-applies staged writes and re-enqueues index
//!    maintenance for every replayed base op (§5.3) — this is the
//!    mechanism that closes the window a crash-mid-put or failed fsync
//!    opened (a `CrashNextPut` landing on the final step has not had a
//!    monitor tick to heal it yet). This is exactly why the schedule
//!    generator suppresses `Flush` while dirty: flushing would truncate
//!    the WAL evidence this phase replays.
//! 3. **Quiesce**: drain every AUQ.
//! 4. **Check**: no lost acked writes, index/base agreement, read
//!    agreement for the whole value alphabet, and zero dropped AUQ tasks.

use crate::checker::{self, Violation};
use crate::schedule::{
    self, Fault, Mode, Schedule, Step, StepOp, BASE_REGIONS, INDEX_REGIONS, NUM_SERVERS,
    NUM_VALUES,
};
use bytes::Bytes;
use diff_index_cluster::{Cluster, ClusterOptions, FaultPoint, HealthMonitor, HealthOptions};
use diff_index_core::{
    DiffIndex, IndexScheme, IndexSpec, RecordingStore, Session, Store, WriteKind, WriteOutcome,
    WriteRecord,
};
use diff_index_net::{RemoteClient, ServerGroup};
use std::collections::HashMap;
use std::sync::Arc;

/// Base table name used by every scenario.
pub const BASE_TABLE: &str = "base";
/// Index name used by every scenario.
pub const INDEX_NAME: &str = "ix";
/// The single indexed column.
pub const COLUMN: &[u8] = b"c";

/// Row key for row index `i` (`row00` … `row47`).
pub fn row_key(i: u8) -> Bytes {
    Bytes::from(format!("row{:02}", i))
}

/// Value bytes for value index `i` (`v0` … `v5`; lexicographic order
/// matches numeric order for a single digit).
pub fn value_bytes(i: u8) -> Bytes {
    Bytes::from(format!("v{i}"))
}

/// Knobs for a run.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Pin the transport; `None` lets the seed decide.
    pub force_mode: Option<Mode>,
    /// Print each step as it executes.
    pub verbose: bool,
    /// Sabotage §4.3 on the run's cluster
    /// ([`FaultPlan::sabotage_delta`](diff_index_cluster::FaultPlan::sabotage_delta));
    /// the checkers must fire.
    pub violate_delta: bool,
    /// Sabotage epoch fencing on the run's cluster
    /// ([`FaultPlan::sabotage_fencing`](diff_index_cluster::FaultPlan::sabotage_fencing));
    /// the checkers must fire.
    pub violate_fencing: bool,
}

/// What one `(seed, scheme)` scenario produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// The seed that was run.
    pub seed: u64,
    /// The scheme under test.
    pub scheme: IndexScheme,
    /// Transport the seed chose (or was forced to).
    pub mode: Mode,
    /// Whether the WAL fsynced per write.
    pub wal_sync: bool,
    /// Client operations executed.
    pub ops: usize,
    /// Faults injected.
    pub faults: usize,
    /// Every violation found (empty = pass).
    pub violations: Vec<Violation>,
    /// Tail of the operation history, for failure reports.
    pub history_tail: Vec<WriteRecord>,
}

impl RunOutcome {
    /// True if no checker fired.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The command that reproduces this scenario.
    pub fn repro_command(&self) -> String {
        let mode = match self.mode {
            Mode::Net => " --net",
            Mode::InProcess => " --in-process",
        };
        format!(
            "cargo run -p chaos -- --seed {} --scheme {}{}",
            self.seed,
            self.scheme.short_name(),
            mode
        )
    }
}

/// The environment one scenario runs in. Field order doubles as drop
/// order: the net stack (client, then servers) is torn down before the
/// cluster it fronts.
struct Env {
    di: DiffIndex,
    /// Index administration handle: `di` in-process; the *server-side*
    /// `DiffIndex` in net mode (that is where the AUQs live).
    admin_di: DiffIndex,
    recorder: Arc<RecordingStore>,
    /// Net-mode handle to the remote client, kept unwrapped so the health
    /// monitor can probe liveness over real TCP (`ping_server`).
    remote: Option<RemoteClient>,
    group: Option<ServerGroup>,
    cluster: Cluster,
    _dir: tempdir_lite::TempDir,
}

fn build_env(sched: &Schedule, opts: &RunOptions) -> Result<Env, String> {
    let dir = tempdir_lite::TempDir::new("chaos").map_err(|e| format!("tempdir: {e}"))?;
    // Big memtable: flushes happen only when the schedule says so, and a
    // huge retention keeps `RB(k, t−δ)` snapshot reads answerable.
    let copts = ClusterOptions {
        num_servers: NUM_SERVERS,
        lsm: diff_index_lsm::LsmOptions {
            wal_sync: sched.wal_sync,
            memtable_flush_bytes: 8 * 1024 * 1024,
            version_retention: u64::MAX,
            compaction_trigger: 0,
            ..Default::default()
        },
    };
    let cluster = Cluster::new(dir.path(), copts).map_err(|e| format!("cluster: {e}"))?;
    cluster.faults().sabotage_delta(opts.violate_delta);
    cluster.faults().sabotage_fencing(opts.violate_fencing);
    cluster.create_table(BASE_TABLE, BASE_REGIONS).map_err(|e| format!("create base: {e}"))?;

    let spec = IndexSpec::single(
        INDEX_NAME,
        BASE_TABLE,
        std::str::from_utf8(COLUMN).unwrap(),
        sched.scheme,
    );
    match sched.mode {
        Mode::InProcess => {
            let recorder = Arc::new(RecordingStore::new(Arc::new(cluster.clone())));
            let store: Arc<dyn Store> = Arc::clone(&recorder) as Arc<dyn Store>;
            let di = DiffIndex::local_over_store(cluster.clone(), store);
            di.create_index(spec, INDEX_REGIONS).map_err(|e| format!("create index: {e}"))?;
            Ok(Env {
                admin_di: di.clone(),
                di,
                recorder,
                remote: None,
                group: None,
                cluster,
                _dir: dir,
            })
        }
        Mode::Net => {
            let server_di = DiffIndex::new(cluster.clone());
            let group = ServerGroup::start(&server_di).map_err(|e| format!("servers: {e}"))?;
            let remote = RemoteClient::connect_default(group.addrs())
                .map_err(|e| format!("connect: {e}"))?;
            let recorder = Arc::new(RecordingStore::new(Arc::new(remote.clone())));
            let store: Arc<dyn Store> = Arc::clone(&recorder) as Arc<dyn Store>;
            let di = DiffIndex::over_store(store);
            di.create_index(spec, INDEX_REGIONS).map_err(|e| format!("create index: {e}"))?;
            Ok(Env {
                di,
                admin_di: server_di,
                recorder,
                remote: Some(remote),
                group: Some(group),
                cluster,
                _dir: dir,
            })
        }
    }
}

/// Run one `(seed, scheme)` scenario to completion and return its verdict.
pub fn run_seed(seed: u64, scheme: IndexScheme, opts: &RunOptions) -> RunOutcome {
    let sched = schedule::generate(seed, scheme, opts.force_mode);
    let mut outcome = RunOutcome {
        seed,
        scheme,
        mode: sched.mode,
        wal_sync: sched.wal_sync,
        ops: sched.op_count(),
        faults: sched.steps.len() - sched.op_count(),
        violations: Vec::new(),
        history_tail: Vec::new(),
    };
    let env = match build_env(&sched, opts) {
        Ok(env) => env,
        Err(e) => {
            outcome
                .violations
                .push(Violation { check: "harness", detail: format!("environment setup: {e}") });
            return outcome;
        }
    };
    let mut violations = drive(&sched, &env, opts);

    // ---- end-of-run: un-wedge, repair, quiesce, check -------------------
    set_auq_stalled(&env, false);
    env.cluster.faults().disarm_all();
    if sched.has_faults() {
        if let Err(e) = repair_all(&env.cluster) {
            violations.push(Violation { check: "harness", detail: format!("repair: {e}") });
        }
    }
    env.di.quiesce(BASE_TABLE);
    if env.cluster.faults().anything_armed() {
        violations.push(Violation {
            check: "harness",
            detail: "a fault survived disarm_all into verification".into(),
        });
    }

    let store: &dyn Store = env.recorder.as_ref();
    let history = env.recorder.history();
    violations.extend(checker::check_final_state(store, history, BASE_TABLE, COLUMN));
    if let Ok(handle) = env.admin_di.index(BASE_TABLE, INDEX_NAME) {
        violations.extend(checker::check_index_agreement(store, &handle.spec, scheme));
    } else {
        violations
            .push(Violation { check: "harness", detail: "index handle disappeared".into() });
    }
    let values: Vec<Bytes> = (0..NUM_VALUES).map(value_bytes).collect();
    violations.extend(checker::check_read_agreement(
        &env.di, store, BASE_TABLE, INDEX_NAME, COLUMN, &values,
    ));
    for handle in env.admin_di.indexes_of(BASE_TABLE) {
        if let Some(auq) = handle.try_auq() {
            let dropped = auq.metrics().dropped.load(std::sync::atomic::Ordering::Relaxed);
            if dropped > 0 {
                violations.push(Violation {
                    check: "auq-dropped",
                    detail: format!("{dropped} AUQ task(s) exhausted their retry budget"),
                });
            }
        }
    }

    outcome.history_tail = history.tail(25);
    outcome.violations = violations;
    if let Some(group) = &env.group {
        group.shutdown();
    }
    outcome
}

fn set_auq_stalled(env: &Env, stalled: bool) {
    for handle in env.admin_di.indexes_of(BASE_TABLE) {
        if let Some(auq) = handle.try_auq() {
            auq.set_stalled(stalled);
        }
    }
}

/// Crash + recover every server in turn: each region gets reopened from
/// its WAL at least once, re-applying staged writes and re-enqueuing the
/// index maintenance that a mid-put crash or failed fsync skipped.
fn repair_all(cluster: &Cluster) -> diff_index_cluster::Result<()> {
    for sid in 0..NUM_SERVERS as u32 {
        if cluster.servers().contains(&sid) {
            cluster.crash_server(sid);
        }
        cluster.recover()?;
        cluster.restart_server(sid);
    }
    Ok(())
}

/// Execute every step of the schedule, collecting inline violations.
fn drive(sched: &Schedule, env: &Env, opts: &RunOptions) -> Vec<Violation> {
    let mut violations = Vec::new();
    let fault_free = !sched.has_faults();
    let store: &dyn Store = env.recorder.as_ref();

    // The master's failure detector, ticked once per step so healing is a
    // deterministic function of the schedule (`dead_after` ticks after a
    // crash, regions are reassigned and the server process restarted). In
    // net mode the probe goes over real TCP: a dead server's listener still
    // accepts, but its `Ping` answers `ServerDown`.
    let monitor = HealthMonitor::new(&env.cluster, HealthOptions::default());
    if let Some(remote) = &env.remote {
        let probe = remote.clone();
        monitor.set_probe(Box::new(move |sid| probe.ping_server(sid).is_ok()));
    }
    let session: Option<Session> =
        (sched.scheme == IndexScheme::AsyncSession).then(|| env.di.session());
    // Rows whose latest write came from the session (value index): those
    // are the rows read-your-writes is still accountable for.
    let mut session_rows: HashMap<u8, u8> = HashMap::new();
    // On fault-free seeds every op must ack, so this mirrors the base
    // table exactly and backs the inline sync-scheme read checks.
    let mut truth: HashMap<u8, u8> = HashMap::new();

    for (i, step) in sched.steps.iter().enumerate() {
        if opts.verbose {
            eprintln!("  step {i}: {step:?}");
        }
        match step {
            Step::Fault(Fault::ResurrectZombie { server, row, value }) => {
                // The zombie's write (fenced-then-retried, or — sabotaged —
                // acked and lost) is the row's latest write and does not come
                // from the session.
                session_rows.remove(row);
                resurrect_zombie(*server, *row, *value, env, store, &mut violations);
            }
            Step::Fault(fault) => inject(fault, env),
            Step::Op(op) => {
                run_op(
                    op,
                    env,
                    store,
                    session.as_ref(),
                    &mut session_rows,
                    &mut truth,
                    fault_free,
                    &mut violations,
                );
            }
        }
        // One probe round per step; newly declared deaths were already
        // healed inside the tick (regions reassigned, WALs replayed), so
        // all that is left is to model the server process rebooting —
        // empty-handed, but still holding its crash-time region view.
        for sid in monitor.tick() {
            env.cluster.restart_server(sid);
        }
    }
    violations
}

fn inject(fault: &Fault, env: &Env) {
    match fault {
        Fault::CrashNextPut => env.cluster.faults().arm(FaultPoint::CrashMidPut, 1),
        Fault::FsyncFail { count } => env.cluster.faults().arm(FaultPoint::WalFsync, *count),
        Fault::AppendFail { count } => env.cluster.faults().arm(FaultPoint::WalAppend, *count),
        Fault::CrashServer { server } => env.cluster.crash_server(*server),
        // Handled in `drive` (needs session bookkeeping + the recorder).
        Fault::ResurrectZombie { .. } => unreachable!("handled in drive"),
        Fault::KillConnections => {
            if let Some(group) = &env.group {
                group.kill_connections();
            }
        }
        Fault::DropNextResponse { server } => {
            env.cluster.faults().arm(FaultPoint::DropResponse(*server), 1);
        }
        Fault::StallAuq => set_auq_stalled(env, true),
        Fault::ResumeAuq => set_auq_stalled(env, false),
    }
}

/// A healed server comes back from the dead still holding its crash-time
/// region view, and tries to serve a client write for a region that moved
/// away while it was down. Epoch fencing must reject it; the modeled client
/// then fails over and re-issues the write through the current map (a
/// normal, recorded write). If the zombie *acks* — only possible with
/// fencing sabotaged or broken — the ack is recorded exactly as the client
/// observed it, so the final-state checker sees the lost write.
fn resurrect_zombie(
    server: u32,
    row: u8,
    value: u8,
    env: &Env,
    store: &dyn Store,
    violations: &mut Vec<Violation>,
) {
    let cols = vec![(Bytes::copy_from_slice(COLUMN), value_bytes(value))];
    match env.cluster.zombie_put(server, BASE_TABLE, &row_key(row), &cols) {
        Err(_) => {
            // StaleEpoch (fenced), NotServing (the zombie never owned the
            // row's region) or ServerDown (region never reassigned): the
            // client retries through the current partition map.
            let _ = store.put(BASE_TABLE, &row_key(row), &cols);
        }
        Ok(ts) => {
            if !env.cluster.faults().fencing_sabotaged() {
                violations.push(Violation {
                    check: "zombie-fence",
                    detail: format!(
                        "zombie server {server} acked a write to row{row:02} \
                         with fencing enabled"
                    ),
                });
            }
            env.recorder.history().record(
                BASE_TABLE,
                &row_key(row),
                WriteKind::Put { columns: cols },
                WriteOutcome::Acked { ts },
            );
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_op(
    op: &StepOp,
    env: &Env,
    store: &dyn Store,
    session: Option<&Session>,
    session_rows: &mut HashMap<u8, u8>,
    truth: &mut HashMap<u8, u8>,
    fault_free: bool,
    violations: &mut Vec<Violation>,
) {
    let col = Bytes::copy_from_slice(COLUMN);
    match op {
        StepOp::Put { row, value } => {
            let old = truth.get(row).copied();
            let res = store.put(BASE_TABLE, &row_key(*row), &[(col, value_bytes(*value))]);
            session_rows.remove(row);
            if acked_fault_free(&res, fault_free, format_args!("put(row{row:02})"), violations) {
                truth.insert(*row, *value);
                inline_read_check(env, truth, &[old, Some(*value)], violations);
            }
        }
        StepOp::PutBatch { rows } => {
            let batch: Vec<(Bytes, Vec<(Bytes, Bytes)>)> = rows
                .iter()
                .map(|(r, v)| (row_key(*r), vec![(col.clone(), value_bytes(*v))]))
                .collect();
            let res = store.put_batch(BASE_TABLE, &batch);
            for (r, _) in rows {
                session_rows.remove(r);
            }
            if acked_fault_free(&res, fault_free, format_args!("put_batch"), violations) {
                let mut affected: Vec<Option<u8>> = Vec::new();
                for (r, v) in rows {
                    affected.push(truth.insert(*r, *v));
                    affected.push(Some(*v));
                }
                inline_read_check(env, truth, &affected, violations);
            }
        }
        StepOp::Delete { row } => {
            let old = truth.get(row).copied();
            let res = store.delete(BASE_TABLE, &row_key(*row), &[col]);
            session_rows.remove(row);
            if acked_fault_free(&res, fault_free, format_args!("delete(row{row:02})"), violations) {
                truth.remove(row);
                inline_read_check(env, truth, &[old], violations);
            }
        }
        StepOp::SessionPut { row, value } => {
            let old = truth.get(row).copied();
            let res = match session {
                Some(s) => s
                    .put(BASE_TABLE, &row_key(*row), &[(col, value_bytes(*value))])
                    .map_err(|e| e.to_string()),
                None => store
                    .put(BASE_TABLE, &row_key(*row), &[(col, value_bytes(*value))])
                    .map_err(|e| e.to_string()),
            };
            match &res {
                Ok(_) if session.is_some() => {
                    session_rows.insert(*row, *value);
                }
                _ => {
                    session_rows.remove(row);
                }
            }
            let what = format_args!("session put(row{row:02})");
            if acked_fault_free(&res, fault_free, what, violations) {
                truth.insert(*row, *value);
                inline_read_check(env, truth, &[old, Some(*value)], violations);
            }
        }
        StepOp::IndexRead { value } => {
            index_read(env, truth, *value, fault_free, violations);
        }
        StepOp::SessionRead { value } => match session {
            Some(s) => {
                let res = s.get_by_index(BASE_TABLE, INDEX_NAME, &value_bytes(*value), usize::MAX);
                if let Ok(hits) = &res {
                    // Read-your-writes: every row whose *latest* write
                    // was this session's put of `value` must be seen,
                    // no matter how far the AUQ lags.
                    for (row, v) in session_rows.iter() {
                        if v == value && !hits.iter().any(|h| h.row == row_key(*row)) {
                            violations.push(Violation {
                                check: "session-ryw",
                                detail: format!(
                                    "session read of {:?} missed its own write to row{row:02}",
                                    value_bytes(*value)
                                ),
                            });
                        }
                    }
                }
                acked_fault_free(&res, fault_free, format_args!("session read"), violations);
            }
            None => index_read(env, truth, *value, fault_free, violations),
        },
        StepOp::RangeRead { lo, hi } => {
            let res = env.di.range_by_index(
                BASE_TABLE,
                INDEX_NAME,
                &value_bytes(*lo),
                &value_bytes(*hi),
                true,
                usize::MAX,
            );
            acked_fault_free(&res, fault_free, format_args!("range read"), violations);
        }
        StepOp::Flush => {
            let index_table = match env.di.index(BASE_TABLE, INDEX_NAME) {
                Ok(h) => h.spec.index_table(),
                Err(_) => return,
            };
            let res = store.flush_table(BASE_TABLE).and_then(|_| store.flush_table(&index_table));
            acked_fault_free(&res, fault_free, format_args!("flush"), violations);
        }
        StepOp::Compact => {
            let index_table = match env.di.index(BASE_TABLE, INDEX_NAME) {
                Ok(h) => h.spec.index_table(),
                Err(_) => return,
            };
            let res = env
                .cluster
                .compact_table(BASE_TABLE)
                .and_then(|_| env.cluster.compact_table(&index_table));
            acked_fault_free(&res, fault_free, format_args!("compact"), violations);
        }
    }
}

/// On a fault-free seed every op must succeed. Returns true when `res` is
/// such a success; a failure there pushes a `fault-free` violation naming
/// `what`. On a faulted seed nothing is checked and the result is false.
fn acked_fault_free<T, E: std::fmt::Display>(
    res: &Result<T, E>,
    fault_free: bool,
    what: std::fmt::Arguments<'_>,
    violations: &mut Vec<Violation>,
) -> bool {
    if !fault_free {
        return false;
    }
    match res {
        Ok(_) => true,
        Err(e) => {
            violations.push(Violation {
                check: "fault-free",
                detail: format!("{what} failed with no fault injected: {e}"),
            });
            false
        }
    }
}

/// On fault-free seeds, the synchronous schemes promise exact reads the
/// moment the put acks (§3.4): check every value the op touched.
fn inline_read_check(
    env: &Env,
    truth: &HashMap<u8, u8>,
    affected: &[Option<u8>],
    violations: &mut Vec<Violation>,
) {
    let scheme = match env.di.index(BASE_TABLE, INDEX_NAME) {
        Ok(h) => h.spec.scheme,
        Err(_) => return,
    };
    if !matches!(scheme, IndexScheme::SyncFull | IndexScheme::SyncInsert) {
        return;
    }
    let mut seen = Vec::new();
    for value in affected.iter().flatten() {
        if seen.contains(value) {
            continue;
        }
        seen.push(*value);
        check_value_exact(env, truth, *value, violations);
    }
}

fn check_value_exact(
    env: &Env,
    truth: &HashMap<u8, u8>,
    value: u8,
    violations: &mut Vec<Violation>,
) {
    let mut expected: Vec<Bytes> =
        truth.iter().filter(|(_, v)| **v == value).map(|(r, _)| row_key(*r)).collect();
    expected.sort();
    match env.di.get_by_index(BASE_TABLE, INDEX_NAME, &value_bytes(value), usize::MAX) {
        Ok(hits) => {
            let mut actual: Vec<Bytes> = hits.into_iter().map(|h| h.row).collect();
            actual.sort();
            actual.dedup();
            if actual != expected {
                violations.push(Violation {
                    check: "sync-inline",
                    detail: format!(
                        "after ack, {:?} reads {:?} but base holds {:?}",
                        value_bytes(value),
                        actual,
                        expected
                    ),
                });
            }
        }
        Err(e) => violations.push(Violation {
            check: "sync-inline",
            detail: format!("inline read of {:?} failed: {e}", value_bytes(value)),
        }),
    }
}

fn index_read(
    env: &Env,
    truth: &HashMap<u8, u8>,
    value: u8,
    fault_free: bool,
    violations: &mut Vec<Violation>,
) {
    if fault_free {
        let scheme = env.di.index(BASE_TABLE, INDEX_NAME).map(|h| h.spec.scheme);
        if matches!(scheme, Ok(IndexScheme::SyncFull) | Ok(IndexScheme::SyncInsert)) {
            check_value_exact(env, truth, value, violations);
            return;
        }
    }
    // Async schemes mid-run (or any scheme mid-fault): the read only has
    // to not wedge; its result is validated at convergence.
    let _ = env.di.get_by_index(BASE_TABLE, INDEX_NAME, &value_bytes(value), usize::MAX);
}
