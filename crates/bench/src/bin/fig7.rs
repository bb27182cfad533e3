//! **Figure 7 — Update performance** (8-server cluster, 100 % updates,
//! 1–320 client threads): index-update latency vs achieved throughput for
//! `null` (no index), `insert` (sync-insert), `async` (async-simple) and
//! `full` (sync-full), plus the §8.2 headline numbers derived from the
//! curves.

#![forbid(unsafe_code)]

use diff_index_bench::{render_curves, render_summary};
use diff_index_sim::{update_curves, SimConfig};

fn main() {
    let cfg = SimConfig::in_house();
    let duration = duration_us();
    let curves = update_curves(&cfg, duration);
    print!("{}", render_curves("Figure 7: update latency vs throughput (8 servers)", &curves));
    println!("{}", render_summary(&curves));

    let by = |l: &str| curves.iter().find(|c| c.label == l).unwrap();
    let null = by("null");
    let insert = by("insert");
    let asy = by("async");
    let full = by("full");

    // §8.2 claims, re-derived from the measured curves:
    let added = |c: &diff_index_sim::Curve| c.low_load_latency_ms() - null.low_load_latency_ms();
    println!("derived claims (paper §8.2):");
    println!(
        "  sync-insert latency ≈ {:.1}x a base put   (paper: \"approximately two times\")",
        insert.low_load_latency_ms() / null.low_load_latency_ms()
    );
    println!(
        "  sync-full latency   ≈ {:.1}x a base put   (paper: \"can be five times higher\")",
        full.low_load_latency_ms() / null.low_load_latency_ms()
    );
    println!(
        "  index-update latency reduction, insert vs full: {:.0}%  (paper: 60-80%)",
        (1.0 - added(insert) / added(full)) * 100.0
    );
    println!(
        "  index-update latency reduction, async  vs full: {:.0}%  (paper: 60-80%)",
        (1.0 - added(asy).max(0.0) / added(full)) * 100.0
    );
    println!(
        "  async saturation {:.0} TPS vs sync-full {:.0} TPS: {:.0}% higher  (paper: 4200 vs 3200, ~30%)",
        asy.saturation_tps(),
        full.saturation_tps(),
        (asy.saturation_tps() / full.saturation_tps() - 1.0) * 100.0
    );
}

fn duration_us() -> u64 {
    std::env::var("SIM_SECONDS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(15)
        * 1_000_000
}
