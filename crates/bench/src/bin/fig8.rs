//! **Figure 8 — Read performance** (exact-match `getByIndex`, warmed cache,
//! 1–320 client threads): read latency vs throughput for `full`, `insert`
//! and `async`. The paper's observations: sync-full reads are fast (only
//! the small index table is touched); sync-insert reads are much slower
//! (each hit incurs a base-table double check); async reads match sync-full
//! but without a consistency guarantee.

#![forbid(unsafe_code)]

use diff_index_bench::{render_curves, render_summary};
use diff_index_sim::{read_curves, SimConfig};

fn main() {
    let cfg = SimConfig::in_house();
    let duration = std::env::var("SIM_SECONDS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(15)
        * 1_000_000;
    let curves = read_curves(&cfg, duration);
    print!("{}", render_curves("Figure 8: exact-match index read latency vs throughput", &curves));
    println!("{}", render_summary(&curves));
    let by = |l: &str| curves.iter().find(|c| c.label == l).unwrap();
    println!("derived claims (paper §8.2):");
    println!(
        "  sync-insert read ≈ {:.1}x sync-full read  (paper: \"much higher because it involves an additional base table read\")",
        by("insert").low_load_latency_ms() / by("full").low_load_latency_ms()
    );
    println!(
        "  async read ≈ {:.2}x sync-full read       (paper: \"close to sync-full however ... not guaranteed to be consistent\")",
        by("async").low_load_latency_ms() / by("full").low_load_latency_ms()
    );
}
