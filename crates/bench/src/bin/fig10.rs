//! **Figure 10 — Diff-Index update performance in IBM RC2** (40 virtual
//! data servers, 5× the data of the in-house cluster). The paper's
//! findings: the 40-server cluster reaches *less than 4×* the TPS of the
//! 8-server cluster; latencies at 5× the throughput are a couple of times
//! larger; yet the relative ordering of the schemes is preserved.

#![forbid(unsafe_code)]

use diff_index_bench::{render_curves, render_summary};
use diff_index_sim::{update_curves, Curve, SimConfig};

fn main() {
    let duration = std::env::var("SIM_SECONDS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(15)
        * 1_000_000;
    let small = update_curves(&SimConfig::in_house(), duration);
    let big = update_curves(&SimConfig::rc2_cloud(), duration);
    print!("{}", render_curves("Figure 10: update latency vs throughput (40-VM RC2 cloud)", &big));
    println!("{}", render_summary(&big));

    let sat = |cs: &[Curve], l: &str| cs.iter().find(|c| c.label == l).unwrap().saturation_tps();
    println!("scale-out analysis (5x servers, paper: \"less than 4x TPS\"):");
    for l in ["null", "insert", "async", "full"] {
        println!(
            "  {l:<7} 8-server {:>6.0} TPS -> 40-server {:>7.0} TPS  ({:.1}x)",
            sat(&small, l),
            sat(&big, l),
            sat(&big, l) / sat(&small, l)
        );
    }
    let lat = |cs: &[Curve], l: &str| cs.iter().find(|c| c.label == l).unwrap().low_load_latency_ms();
    println!("\nlow-load latency, cloud vs in-house (paper: \"a couple of times larger\"):");
    for l in ["null", "insert", "async", "full"] {
        println!("  {l:<7} {:.1} ms -> {:.1} ms ({:.1}x)", lat(&small, l), lat(&big, l), lat(&big, l) / lat(&small, l));
    }
}
