//! The harness's own safety net: clean scenarios pass, and each sabotaged
//! correctness rule — the §4.3 old-entry timestamp and epoch fencing — is
//! caught deterministically, from the same seed, by the checkers.
//!
//! The sabotage switches live on each run's own cluster
//! ([`RunOptions::violate_delta`], [`RunOptions::violate_fencing`]), so the
//! sabotaged and clean runs below share one process safely.

use chaos::{generate, run_seed, Fault, Mode, RunOptions, Step, Violation};
use diff_index_core::IndexScheme;

/// The set of checkers that fired. Timestamps inside violation details
/// differ between replays — the region oracle is wall-clock — so replays
/// compare this, not the text.
fn checks(v: &[Violation]) -> Vec<&'static str> {
    let mut c: Vec<&'static str> = v.iter().map(|v| v.check).collect();
    c.sort_unstable();
    c.dedup();
    c
}

#[test]
fn clean_seeds_pass() {
    let opts = RunOptions::default();
    for seed in 0..3u64 {
        for scheme in IndexScheme::all() {
            let outcome = run_seed(seed, scheme, &opts);
            assert!(
                outcome.passed(),
                "clean seed {seed} scheme {} failed: {:?}",
                scheme.short_name(),
                outcome.violations
            );
        }
    }
}

/// Sabotage §4.3 under `scheme` on seed 1 and require the checkers to
/// catch it, the same way on replay, with the clean run passing.
fn violated_delta_is_caught(scheme: IndexScheme) {
    let clean = RunOptions { force_mode: Some(Mode::Net), ..RunOptions::default() };
    let sabotage = RunOptions { violate_delta: true, ..clean.clone() };
    let first = run_seed(1, scheme, &sabotage);
    let second = run_seed(1, scheme, &sabotage);

    assert!(
        !first.passed(),
        "sabotaged §4.3 not caught under {} — the checkers are blind to stale entries",
        scheme.short_name()
    );
    // Deterministic replay: same seed → the same checkers fire on the same
    // scenario shape.
    assert_eq!(
        checks(&first.violations),
        checks(&second.violations),
        "replay of seed 1 fired different checkers"
    );

    // Without the sabotage the identical scenario is clean.
    let outcome = run_seed(1, scheme, &clean);
    assert!(outcome.passed(), "clean replay failed: {:?}", outcome.violations);
}

#[test]
fn violated_delta_is_caught_deterministically() {
    // Sabotage §4.3: SU3/SU4 read the pre-image at ts instead of ts−δ, so
    // old == new and the old index entry is never deleted. Seed 1 under
    // sync-full is fault-free (no RepairAll to legitimately clean up), so
    // the stale entries survive to the end-of-run checks.
    violated_delta_is_caught(IndexScheme::SyncFull);
}

#[test]
fn violated_delta_is_caught_in_the_aps() {
    // The same switch covers the APS's BA2→BA3, so async-simple leaks the
    // old entries too.
    violated_delta_is_caught(IndexScheme::AsyncSimple);
}

fn zombie_seeds(scheme: IndexScheme, limit: usize) -> Vec<u64> {
    (0..500u64)
        .filter(|&seed| {
            generate(seed, scheme, Some(Mode::InProcess))
                .steps
                .iter()
                .any(|s| matches!(s, Step::Fault(Fault::ResurrectZombie { .. })))
        })
        .take(limit)
        .collect()
}

#[test]
fn unfenced_zombie_acks_are_caught() {
    let scheme = IndexScheme::SyncFull;
    let clean = RunOptions { force_mode: Some(Mode::InProcess), ..RunOptions::default() };
    let sabotage = RunOptions { violate_fencing: true, ..clean.clone() };
    let seeds = zombie_seeds(scheme, 8);
    assert!(!seeds.is_empty(), "no schedule in 0..500 resurrects a zombie");

    // Fence intact: every zombie write is rejected with StaleEpoch and the
    // modeled client retry keeps the run consistent.
    for &seed in &seeds {
        let outcome = run_seed(seed, scheme, &clean);
        assert!(
            outcome.passed(),
            "seed {seed} failed with fencing ENABLED: {:?}",
            outcome.violations
        );
    }

    // Fence sabotaged: zombies ack writes nobody applies. The loss is only
    // observable when no later write overwrites the row, so scan the seeds
    // and require the checkers to catch at least one — then prove the catch
    // replays deterministically.
    let caught: Vec<u64> =
        seeds.iter().copied().filter(|&s| !run_seed(s, scheme, &sabotage).passed()).collect();
    assert!(
        !caught.is_empty(),
        "fencing disabled but no checker caught a lost zombie ack across seeds {seeds:?}"
    );
    let replay = run_seed(caught[0], scheme, &sabotage);
    assert!(
        !replay.passed(),
        "seed {} caught once but clean on replay — detection is nondeterministic",
        caught[0]
    );
    assert!(
        replay.violations.iter().all(|v| v.check != "harness"),
        "sabotage must trip consistency checkers, not the harness: {:?}",
        replay.violations
    );

    // Without the sabotage the identical scenario is clean.
    let outcome = run_seed(caught[0], scheme, &clean);
    assert!(
        outcome.passed(),
        "clean replay of seed {} failed: {:?}",
        caught[0],
        outcome.violations
    );
}
