//! Chaos harness CLI.
//!
//! ```text
//! cargo run -p chaos -- --seeds 500                 # 500 seeds × 4 schemes
//! cargo run -p chaos -- --seed 1234 --scheme full   # replay one scenario
//! cargo run -p chaos -- --seeds 200 --net           # force network mode
//! cargo run -p chaos -- --seeds 50 --violate-delta  # sabotage §4.3; must FAIL
//! cargo run -p chaos -- --seeds 50 --violate-fencing # disable epoch fence; must FAIL
//! ```
//!
//! Exit status 0 = every scenario passed; 1 = at least one violation (each
//! printed with the exact command that reproduces it).

#![forbid(unsafe_code)]

use chaos::{run_seed, Mode, RunOptions, RunOutcome};
use diff_index_core::IndexScheme;
use std::io::Write;

struct Cli {
    seeds: u64,
    start: u64,
    schemes: Vec<IndexScheme>,
    force_mode: Option<Mode>,
    violate_delta: bool,
    violate_fencing: bool,
    verbose: bool,
    artifact_dir: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: chaos [--seeds N] [--seed S | --start S0] [--scheme full|insert|async|session|all]\n\
         \x20            [--net | --in-process] [--violate-delta] [--violate-fencing]\n\
         \x20            [--verbose] [--artifact-dir DIR]"
    );
    std::process::exit(2);
}

fn parse_args() -> Cli {
    let mut cli = Cli {
        seeds: 100,
        start: 0,
        schemes: IndexScheme::all().to_vec(),
        force_mode: None,
        violate_delta: false,
        violate_fencing: false,
        verbose: false,
        artifact_dir: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().unwrap_or_else(|| {
            eprintln!("{name} needs a value");
            usage()
        });
        match arg.as_str() {
            "--seeds" => cli.seeds = value("--seeds").parse().unwrap_or_else(|_| usage()),
            "--seed" => {
                cli.start = value("--seed").parse().unwrap_or_else(|_| usage());
                cli.seeds = 1;
            }
            "--start" => cli.start = value("--start").parse().unwrap_or_else(|_| usage()),
            "--scheme" => {
                let v = value("--scheme");
                cli.schemes = match v.as_str() {
                    "all" => IndexScheme::all().to_vec(),
                    other => match IndexScheme::all().iter().find(|s| s.short_name() == other) {
                        Some(s) => vec![*s],
                        None => usage(),
                    },
                };
            }
            "--net" => cli.force_mode = Some(Mode::Net),
            "--in-process" => cli.force_mode = Some(Mode::InProcess),
            "--violate-delta" => cli.violate_delta = true,
            "--violate-fencing" => cli.violate_fencing = true,
            "--verbose" => cli.verbose = true,
            "--artifact-dir" => cli.artifact_dir = Some(value("--artifact-dir")),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    cli
}

fn report_failure(outcome: &RunOutcome, artifact_dir: Option<&str>) {
    eprintln!(
        "\nFAIL seed={} scheme={} mode={:?} wal_sync={} ({} ops, {} faults)",
        outcome.seed,
        outcome.scheme.short_name(),
        outcome.mode,
        outcome.wal_sync,
        outcome.ops,
        outcome.faults
    );
    for v in &outcome.violations {
        eprintln!("  {v}");
    }
    eprintln!("  history tail ({} most recent writes):", outcome.history_tail.len());
    for rec in &outcome.history_tail {
        eprintln!("    {rec:?}");
    }
    eprintln!("  reproduce with: {}", outcome.repro_command());
    if let Some(dir) = artifact_dir {
        let _ = std::fs::create_dir_all(dir);
        let path =
            format!("{dir}/seed-{}-{}.txt", outcome.seed, outcome.scheme.short_name());
        if let Ok(mut f) = std::fs::File::create(&path) {
            let _ = writeln!(
                f,
                "seed: {}\nscheme: {}\nmode: {:?}\nwal_sync: {}\nrepro: {}\n",
                outcome.seed,
                outcome.scheme.short_name(),
                outcome.mode,
                outcome.wal_sync,
                outcome.repro_command()
            );
            for v in &outcome.violations {
                let _ = writeln!(f, "violation: {v}");
            }
            let _ = writeln!(f, "\nhistory tail:");
            for rec in &outcome.history_tail {
                let _ = writeln!(f, "  {rec:?}");
            }
            eprintln!("  artifact written to {path}");
        }
    }
}

fn main() {
    let cli = parse_args();
    if cli.violate_delta {
        eprintln!("sabotage: §4.3 old-entry timestamp rule DISABLED (expect violations)");
    }
    if cli.violate_fencing {
        eprintln!("sabotage: epoch fencing DISABLED — zombies ack lost writes (expect violations)");
    }
    let opts = RunOptions {
        force_mode: cli.force_mode,
        verbose: cli.verbose,
        violate_delta: cli.violate_delta,
        violate_fencing: cli.violate_fencing,
    };
    let mut passed = 0u64;
    let mut failed = 0u64;
    let t0 = std::time::Instant::now();
    for seed in cli.start..cli.start + cli.seeds {
        for &scheme in &cli.schemes {
            if cli.verbose {
                eprintln!("seed {seed} scheme {}", scheme.short_name());
            }
            let outcome = run_seed(seed, scheme, &opts);
            if outcome.passed() {
                passed += 1;
            } else {
                failed += 1;
                report_failure(&outcome, cli.artifact_dir.as_deref());
            }
        }
        let done = seed - cli.start + 1;
        if done.is_multiple_of(50) {
            eprintln!(
                "… {done}/{} seeds ({passed} pass, {failed} fail, {:.1}s)",
                cli.seeds,
                t0.elapsed().as_secs_f64()
            );
        }
    }
    println!(
        "chaos: {} scenarios ({} seeds × {} schemes): {passed} passed, {failed} failed in {:.1}s",
        passed + failed,
        cli.seeds,
        cli.schemes.len(),
        t0.elapsed().as_secs_f64()
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
