//! Figure 4: the same four scalability panels as Figure 3, but with a
//! small database (100 MB) and a low update rate (10 B/s) — the regime
//! where the centralized design wins and PIER is competitive only at
//! small database sizes.

use crate::figures::run_scalability_panels;
use crate::{Args, OutDir, OutTable};
use seaweed_analytic::params::PIER_REFRESH_1H;
use seaweed_analytic::{maintenance_bps, Architecture, ModelParams};

pub fn run(args: &Args, out: &OutDir) {
    let points = args.get("points", 25usize);
    let base = ModelParams::small_db_low_rate();
    println!("Figure 4: scalability with d = 100 MB, u = 10 B/s");
    run_scalability_panels(&base, "fig04", points, out);

    let mut t = OutTable::new(&["architecture", "bytes/sec system-wide"]);
    let mut p1h = base;
    p1h.r = PIER_REFRESH_1H;
    for (name, v) in [
        (
            "Centralized",
            maintenance_bps(Architecture::Centralized, &base),
        ),
        ("Seaweed", maintenance_bps(Architecture::Seaweed, &base)),
        (
            "DHT-replicated",
            maintenance_bps(Architecture::DhtReplicated, &base),
        ),
        ("PIER (5 min)", maintenance_bps(Architecture::Pier, &base)),
        ("PIER (1 h)", maintenance_bps(Architecture::Pier, &p1h)),
    ] {
        t.row(vec![name.into(), format!("{v:.3e}")]);
    }
    println!();
    t.print();
    println!("  (paper: at these rates the centralized approach has the lowest overhead)");
}
