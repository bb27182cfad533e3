//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <update_sync_full|read_index_insert|mixed_async_wire>
//!           --seed <u64> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the host/input record, then one line per metric, then as its last
//! line one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 1 (after printing `"correct": false`) on a correctness breach,
//! and 2 without a result on bad arguments or a failed set-up.

use diff_index_perfbench::{run, Config, Sizes, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let Some(v) = args.next() else {
                    return usage(&format!("{flag} needs a value"));
                };
                match flag.as_str() {
                    "--workload" => match Workload::parse(&v) {
                        Some(w) => workload = Some(w),
                        None => return usage(&format!("unknown workload {v:?}")),
                    },
                    "--seed" => match v.parse::<u64>() {
                        Ok(s) => seed = Some(s),
                        Err(_) => return usage("--seed takes an unsigned integer"),
                    },
                    "--seconds" => match v.parse::<f64>() {
                        Ok(s) if s > 0.0 && s <= 600.0 => seconds = Some(s),
                        _ => return usage("--seconds takes a number in (0, 600]"),
                    },
                    _ => match v.as_str() {
                        "0" => trace = Some(false),
                        "1" => trace = Some(true),
                        _ => return usage("--trace takes 0 or 1"),
                    },
                }
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        sizes: Sizes::standard(workload),
        corrupt_index: false,
        out_dir: PathBuf::from(".perfbench"),
    };
    let outcome = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    let record: Vec<String> = outcome
        .record
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"record\": {{{}}}}}", record.join(", "));
    for note in &outcome.notes {
        println!("{note}");
    }
    for b in &outcome.breaches {
        println!("correctness breach: {b}");
    }
    for m in &outcome.metrics {
        println!("{:<40} {:>16.3} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
