//! **Figure 11 — Time-lag between data and index** (`async-simple`,
//! open-loop transaction rates 600–4000 TPS): the distribution of the
//! index-after-data lag `T2 − T1`. The paper's observations: at modest
//! load (600–2700 TPS) most index entries are updated within 100 ms; at
//! 4000 TPS the system is close to saturation and the index can be up to
//! several hundred seconds late.

#![forbid(unsafe_code)]

use diff_index_sim::{staleness_sweep, SimConfig};

fn main() {
    let cfg = SimConfig::in_house();
    let secs = std::env::var("SIM_SECONDS").ok().and_then(|s| s.parse::<u64>().ok()).unwrap_or(30);
    let rates = [600.0, 1500.0, 2700.0, 3500.0, 4000.0];
    let pts = staleness_sweep(&cfg, &rates, secs * 1_000_000);
    println!("# Figure 11: index-after-data time lag (async-simple, {secs}s simulated)\n");
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>12} {:>12} {:>9}",
        "TPS", "p50 ms", "p95 ms", "p99 ms", "max ms", "<=100ms", "backlog"
    );
    for p in &pts {
        println!(
            "{:>6.0} {:>10.1} {:>10.1} {:>10.1} {:>12.0} {:>11.1}% {:>9}",
            p.tps, p.p50_ms, p.p95_ms, p.p99_ms, p.max_ms, p.within_100ms * 100.0, p.backlog
        );
    }
    println!("\nderived claims (paper §8.2):");
    println!(
        "  600-2700 TPS: {:.0}-{:.0}% of index entries updated within 100 ms (paper: \"most ... within 100 ms\")",
        pts[2].within_100ms * 100.0,
        pts[0].within_100ms * 100.0
    );
    println!(
        "  4000 TPS: max lag {:.0} ms and {} tasks backlogged — the AUQ cannot keep up (paper: \"up to several hundred seconds late\")",
        pts[4].max_ms, pts[4].backlog
    );
}
