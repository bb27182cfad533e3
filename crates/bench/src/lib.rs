//! # diff-index-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (§8). One binary per exhibit:
//!
//! | binary  | paper exhibit | what it does |
//! |---------|---------------|--------------|
//! | `table1`| Table 1       | LSM vs B+Tree operational comparison on the real engines |
//! | `table2`| Table 2       | measures per-scheme I/O counts on the real cluster and asserts they equal the analytic table |
//! | `fig7`  | Figure 7      | update latency vs throughput, 8-server simulation |
//! | `fig8`  | Figure 8      | exact-match index-read latency vs throughput |
//! | `fig9`  | Figure 9      | range-query latency vs selectivity |
//! | `fig10` | Figure 10     | update curves on the 40-VM cloud model, scale-out analysis |
//! | `fig11` | Figure 11     | index staleness (time lag) distribution vs transaction rate |
//!
//! Criterion micro-benchmarks (`cargo bench`) cover the raw engine
//! asymmetry, per-scheme update cost and index-read cost on the real stack.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use diff_index_sim::Curve;

/// Render a set of latency/throughput curves as an aligned text table,
/// one row per (scheme, client-count) point — the textual equivalent of the
/// paper's scatter plots.
pub fn render_curves(title: &str, curves: &[Curve]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    out.push_str(&format!(
        "{:<8} {:>8} {:>12} {:>12} {:>12}\n",
        "scheme", "clients", "TPS", "mean ms", "p95 ms"
    ));
    for c in curves {
        for p in &c.points {
            out.push_str(&format!(
                "{:<8} {:>8} {:>12.0} {:>12.2} {:>12.2}\n",
                c.label, p.clients, p.tps, p.mean_ms, p.p95_ms
            ));
        }
        out.push('\n');
    }
    out
}

/// Summarize per-curve saturation and low-load latency.
pub fn render_summary(curves: &[Curve]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<8} {:>16} {:>20}\n",
        "scheme", "low-load ms", "saturation TPS"
    ));
    for c in curves {
        out.push_str(&format!(
            "{:<8} {:>16.2} {:>20.0}\n",
            c.label,
            c.low_load_latency_ms(),
            c.saturation_tps()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use diff_index_sim::CurvePoint;

    fn curve() -> Curve {
        Curve {
            label: "full",
            points: vec![CurvePoint { clients: 1, tps: 100.0, mean_ms: 10.0, p95_ms: 12.0 }],
        }
    }

    #[test]
    fn render_contains_data() {
        let s = render_curves("Figure 7", &[curve()]);
        assert!(s.contains("Figure 7"));
        assert!(s.contains("full"));
        assert!(s.contains("100"));
        let s = render_summary(&[curve()]);
        assert!(s.contains("full"));
    }
}
