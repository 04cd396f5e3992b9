//! Figure 3: analytic maintenance-bandwidth scalability of the four
//! architectures versus (a) network size N, (b) update rate u,
//! (c) database size d, (d) churn rate c — Table 1 values elsewhere.

use crate::figures::run_scalability_panels;
use crate::{Args, OutDir, OutTable};
use seaweed_analytic::{sweep, ModelParams, SweepAxis};

pub fn run(args: &Args, out: &OutDir) {
    let points = args.get("points", 25usize);
    run_scalability_panels(&ModelParams::default(), "fig03", points, out);

    // Headline ratios the paper quotes in §4.2.5.
    let base = ModelParams::default();
    let pts = sweep(&base, SweepAxis::NetworkSize, base.n, base.n * 2.0, 2);
    let p = pts[0];
    println!("\nat Table 1 values (N = {:.0}):", base.n);
    let mut t = OutTable::new(&["architecture", "bytes/sec system-wide", "vs Seaweed"]);
    for (name, v) in [
        ("Seaweed", p.seaweed),
        ("Centralized", p.centralized),
        ("DHT-replicated", p.dht_replicated),
        ("PIER (5 min)", p.pier_5min),
        ("PIER (1 h)", p.pier_1h),
    ] {
        t.row(vec![
            name.into(),
            format!("{v:.3e}"),
            format!("{:.0}x", v / p.seaweed),
        ]);
    }
    t.print();
    println!("  (paper: centralized ~10x Seaweed; DHT and PIER >= 1000x)");
}
