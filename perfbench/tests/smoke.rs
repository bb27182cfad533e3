//! Smoke test of the benchmark itself: every workload at tiny sizes emits
//! every metric named in `BENCHMARK.json` with a unit and a finite value,
//! and the correctness gate fires on a deliberately corrupted index.

use diff_index_perfbench::{run, Config, Outcome, Sizes, Workload};
use std::path::PathBuf;
use std::sync::Mutex;

/// Span recording is process-global: runs must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn run_tiny(w: Workload, trace: bool, corrupt_index: bool) -> Outcome {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = Config {
        workload: w,
        seed: 7,
        seconds: 0.4,
        trace,
        sizes: Sizes::tiny(w),
        corrupt_index,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
    };
    run(&cfg).expect("run")
}

/// Metric names of one section (`end_to_end` or `per_layer`) of
/// BENCHMARK.json.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .collect()
}

fn check_metrics(o: &Outcome, names: &[String], positive: bool) {
    assert_eq!(o.metrics.len(), names.len(), "metric count");
    for name in names {
        let m = o
            .metrics
            .iter()
            .find(|m| &m.name == name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert!(!m.unit.is_empty(), "{name} has no unit");
        assert!(m.value.is_finite(), "{name} = {}", m.value);
        if positive {
            assert!(m.value > 0.0, "{name} = {} should never be 0", m.value);
        }
    }
}

#[test]
fn every_workload_emits_every_metric() {
    let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
    assert!(end_to_end.contains(&"setup_s".to_string()));
    for w in Workload::ALL {
        let o = run_tiny(w, false, false);
        assert!(o.correct, "{}: {:?}", w.name(), o.breaches);
        assert_eq!(o.failed, 0);
        assert!(o.attempted > 0);
        check_metrics(&o, &end_to_end, true);

        let o = run_tiny(w, true, false);
        assert!(o.correct, "{} traced: {:?}", w.name(), o.breaches);
        check_metrics(&o, &per_layer, false);
        let coverage = o
            .metrics
            .iter()
            .find(|m| m.name == "trace.coverage_pct")
            .unwrap();
        assert!(
            coverage.value > 50.0,
            "{}: coverage {}",
            w.name(),
            coverage.value
        );
        assert!(o.notes.iter().any(|n| n.contains("trace.overhead_pct")));
    }
}

#[test]
fn gate_fires_on_corrupted_index() {
    for w in Workload::ALL {
        let o = run_tiny(w, false, true);
        assert!(
            !o.correct,
            "{}: gate missed a deleted index entry",
            w.name()
        );
        assert!(
            o.breaches.iter().any(|b| b.contains("missing")),
            "{}: {:?}",
            w.name(),
            o.breaches
        );
    }
}

#[test]
fn host_and_input_record() {
    let o = run_tiny(Workload::UpdateSyncFull, false, false);
    for key in [
        "nproc",
        "kernel",
        "data_fs",
        "rustc",
        "git_sha",
        "seed",
        "rows",
        "block_cache_bytes",
        "memtable_flush_bytes",
        "client_threads",
        "update_samples",
    ] {
        assert!(o.record.iter().any(|(k, _)| k == key), "record lacks {key}");
    }
}
