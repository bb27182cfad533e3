//! **Figure 9 — Read latency under different selectivity** (range queries
//! on `item_price`, 10 client threads, selectivity 0.0001 %–0.1 % of a
//! 40 M-row table). The paper's observation: sync-insert's latency grows
//! enormously as selectivity drops because every returned row is
//! double-checked against the base table.

#![forbid(unsafe_code)]

use diff_index_sim::{range_query_sweep, SimConfig};

fn main() {
    let cfg = SimConfig::in_house();
    let pts = range_query_sweep(&cfg);
    println!("# Figure 9: range query latency vs selectivity (10 client threads)\n");
    println!(
        "{:<13} {:>9} {:>12} {:>12} {:>12}",
        "selectivity", "rows", "full ms", "insert ms", "async ms"
    );
    for p in &pts {
        println!(
            "{:<13} {:>9} {:>12.1} {:>12.1} {:>12.1}",
            format!("{:.4}%", p.selectivity * 100.0),
            p.rows,
            p.mean_ms[0],
            p.mean_ms[1],
            p.mean_ms[2]
        );
    }
    let first = &pts[0];
    let last = &pts[pts.len() - 1];
    println!("\nderived claims (paper §8.2):");
    println!(
        "  insert/full gap grows from {:.1}x (0.0001%) to {:.1}x (0.1%)",
        first.mean_ms[1] / first.mean_ms[0],
        last.mean_ms[1] / last.mean_ms[0]
    );
    println!("  (paper: \"sync-insert has a much larger latency as selectivity grows lower\";");
    println!("   \"the read performance of sync-insert is acceptable when query selectivity is high\")");
}
