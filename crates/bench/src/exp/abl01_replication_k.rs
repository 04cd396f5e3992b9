//! Ablation: metadata replication factor k.
//!
//! §4.2.2: "the choice of k is a trade-off between overhead and
//! availability". Sweeps k and measures (i) Seaweed maintenance bandwidth
//! and (ii) predictor coverage — the fraction of unavailable endsystems a
//! query could still be predicted for.

use crate::fullsim::{run_full, FullSimConfig};
use crate::{jobs, run_sweep, Args, OutDir, OutTable};
use seaweed_availability::FarsiteConfig;
use seaweed_sim::TrafficClass;
use seaweed_types::{Duration, Time};

pub fn run(args: &Args, out: &OutDir) {
    let n = args.get("n", 800usize);
    let seed = args.get("seed", 14u64);
    let weeks = 1u64;

    let ks = vec![1usize, 2, 4, 8];
    let workers = jobs(args, ks.len());
    println!(
        "Ablation: metadata replication factor k \
         ({n} endsystems, {weeks} week, {workers} threads)"
    );
    let (trace, _) = FarsiteConfig::small(n, weeks).generate(seed);
    let results = run_sweep(ks, workers, |_, &k| {
        let mut cfg = FullSimConfig::new(seed);
        cfg.seaweed.k_metadata = k;
        cfg.injections = vec![Time::ZERO + Duration::from_days(4)];
        (k, run_full(&cfg, &trace))
    });
    let mut rows = Vec::new();
    let mut t = OutTable::new(&["k", "maintenance B/s", "coverage %", "meta repairs"]);
    for (k, result) in &results {
        let k = *k;
        let covered = result.seaweed_stats.predictions_for_unavailable as f64;
        let uncovered = result.seaweed_stats.uncovered_unavailable as f64;
        let coverage = if covered + uncovered > 0.0 {
            100.0 * covered / (covered + uncovered)
        } else {
            100.0
        };
        let maint = result
            .report
            .mean_tx_per_online_bps(TrafficClass::Maintenance);
        rows.push(vec![
            k as f64,
            maint,
            coverage,
            result.seaweed_stats.meta_repairs as f64,
        ]);
        t.row(vec![
            format!("{k}"),
            format!("{maint:.1}"),
            format!("{coverage:.1}"),
            format!("{}", result.seaweed_stats.meta_repairs),
        ]);
    }
    out.write_csv(
        "abl01_replication_k.csv",
        &["k", "maintenance_bps", "coverage_pct", "meta_repairs"],
        &rows,
    );
    t.print();
    println!("  (expected: bandwidth grows ~linearly in k; coverage saturates by k=4..8)");
}
