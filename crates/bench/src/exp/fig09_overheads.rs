//! Figure 9: packet-level performance overheads of the full stack.
//!
//! * (a) per-online-endsystem bandwidth over time, split into MSPastry /
//!   Seaweed maintenance / query traffic (paper: 20,000 endsystems, mean
//!   69 B/s, maintenance dominating);
//! * (b) the CDF of per-endsystem per-hour transmission bandwidth (99th
//!   percentile 178 B/s tx, 195 B/s rx; y-intercept = unavailability);
//! * (c) insensitivity to endsystemId assignment (5 random assignments,
//!   paper at 8,000 endsystems);
//! * (d) per-endsystem overhead versus network size (maintenance O(1),
//!   query and Pastry O(log N)).
//!
//! Default scale is reduced (documented in EXPERIMENTS.md); pass `--full`
//! for the paper's scale.

use crate::fullsim::{
    run_full, write_bandwidth_cdf, write_overhead_timeseries, FullSimConfig, FullSimResult,
};
use crate::{jobs, run_sweep, Args, OutDir, OutTable};
use seaweed_availability::FarsiteConfig;
use seaweed_sim::TrafficClass;
use seaweed_types::{Duration, Time};

pub fn run(args: &Args, out: &OutDir) {
    let part = args.get_str("part", "all");
    let full = args.has("full");
    if part == "a" || part == "b" || part == "all" {
        part_ab(args, full, out);
    }
    if part == "c" || part == "all" {
        part_c(args, full, out);
    }
    if part == "d" || part == "all" {
        part_d(args, full, out);
    }
}

fn simulate(n: usize, weeks: u64, seed: u64, id_seed: u64, collect_cdf: bool) -> FullSimResult {
    let horizon = Duration::WEEK * weeks;
    let (trace, _) = {
        let mut fc = FarsiteConfig::small(n, weeks);
        fc.horizon = horizon;
        fc.generate(seed)
    };
    let mut cfg = FullSimConfig::new(seed);
    cfg.id_seed = id_seed;
    cfg.collect_cdf = collect_cdf;
    cfg.injections = vec![Time::ZERO + Duration::from_days((7 * weeks / 2).max(1))];
    run_full(&cfg, &trace)
}

fn part_ab(args: &Args, full: bool, out: &OutDir) {
    let n = args.get("n", if full { 20_000 } else { 2_000 });
    let weeks = args.get("weeks", if full { 4 } else { 2u64 });
    let seed = args.get("seed", 9u64);
    println!("Figure 9(a,b): {n} endsystems, {weeks} weeks, CorpNet topology");
    #[expect(
        clippy::disallowed_methods,
        reason = "operator-facing progress timing for a host-side experiment driver, never feeds simulated time"
    )]
    let t0 = std::time::Instant::now();
    let result = simulate(n, weeks, seed, seed, true);
    println!(
        "  simulated in {:.1}s ({} messages)",
        t0.elapsed().as_secs_f64(),
        result.messages_sent
    );

    write_overhead_timeseries(out, "fig09a_overhead_timeseries.csv", &result.report);
    let mut t = OutTable::new(&["component", "mean B/s per online endsystem"]);
    let overlay = result.report.mean_tx_per_online_bps(TrafficClass::Overlay);
    let maint = result
        .report
        .mean_tx_per_online_bps(TrafficClass::Maintenance);
    let query = result.report.mean_tx_per_online_bps(TrafficClass::Query);
    t.row(vec!["MSPastry".into(), format!("{overlay:.1}")]);
    t.row(vec!["Seaweed maintenance".into(), format!("{maint:.1}")]);
    t.row(vec!["Seaweed query".into(), format!("{query:.3}")]);
    t.row(vec![
        "total".into(),
        format!("{:.1}", overlay + maint + query),
    ]);
    t.print();
    println!("  (paper at 20,000 endsystems: total mean 69 B/s, maintenance dominant)");

    write_bandwidth_cdf(out, "fig09b_bandwidth_cdf.csv", &result.report);
    println!(
        "  CDF: tx 99th pct {:.0} B/s (paper 178), rx 99th pct {:.0} B/s (paper 195), \
         zero-hours fraction {:.3} (paper: mean unavailability ~0.19)",
        result.report.tx_percentile(99.0),
        result.report.rx_percentile(99.0),
        result.report.tx_zero_fraction(),
    );
}

fn part_c(args: &Args, full: bool, out: &OutDir) {
    let n = args.get("n", if full { 8_000 } else { 800 });
    let weeks = 1u64;
    let seed = args.get("seed", 9u64);
    let id_seeds: Vec<u64> = (0..5u64).map(|s| 1_000 + s).collect();
    let workers = jobs(args, id_seeds.len());
    println!(
        "\nFigure 9(c): sensitivity to endsystemId assignment \
         ({n} endsystems, {} assignments, {workers} threads)",
        id_seeds.len()
    );
    let results = run_sweep(id_seeds, workers, |_, &id_seed| {
        simulate(n, weeks, seed, id_seed, true)
    });
    let mut curves: Vec<Vec<f64>> = Vec::new();
    let mut means = Vec::new();
    for result in &results {
        means.push(result.report.mean_tx_total_per_online_bps());
        let curve: Vec<f64> = (0..=100)
            .map(|p| f64::from(result.report.tx_percentile(f64::from(p))))
            .collect();
        curves.push(curve);
    }
    let rows: Vec<Vec<f64>> = (0..=100usize)
        .map(|p| {
            let mut row = vec![p as f64 / 100.0];
            row.extend(curves.iter().map(|c| c[p]));
            row
        })
        .collect();
    out.write_csv(
        "fig09c_id_assignment_cdfs.csv",
        &["cdf", "assign0", "assign1", "assign2", "assign3", "assign4"],
        &rows,
    );
    let lo = means.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = means.iter().copied().fold(0.0f64, f64::max);
    println!(
        "  means across assignments: {:.2}..{:.2} B/s (spread {:.2}%); paper: curves visually indistinguishable",
        lo,
        hi,
        100.0 * (hi - lo) / lo,
    );
}

fn part_d(args: &Args, full: bool, out: &OutDir) {
    let weeks = 1u64;
    let seed = args.get("seed", 9u64);
    let sizes: Vec<usize> = if full {
        vec![2_000, 8_000, 20_000, 51_663]
    } else {
        vec![250, 500, 1_000, 2_000, 4_000]
    };
    let workers = jobs(args, sizes.len());
    println!("\nFigure 9(d): overhead vs network size {sizes:?} ({workers} threads)");
    let results = run_sweep(sizes, workers, |_, &n| {
        (n, simulate(n, weeks, seed, seed, false))
    });
    let mut rows = Vec::new();
    let mut t = OutTable::new(&["N", "pastry B/s", "maintenance B/s", "query B/s"]);
    for (n, result) in &results {
        let overlay = result.report.mean_tx_per_online_bps(TrafficClass::Overlay);
        let maint = result
            .report
            .mean_tx_per_online_bps(TrafficClass::Maintenance);
        let query = result.report.mean_tx_per_online_bps(TrafficClass::Query);
        rows.push(vec![*n as f64, overlay, maint, query]);
        t.row(vec![
            format!("{n}"),
            format!("{overlay:.2}"),
            format!("{maint:.2}"),
            format!("{query:.4}"),
        ]);
    }
    out.write_csv(
        "fig09d_overhead_vs_n.csv",
        &["n", "pastry_bps", "maintenance_bps", "query_bps"],
        &rows,
    );
    t.print();
    println!(
        "  (paper: maintenance O(1); query and Pastry grow O(log N), orders of magnitude lower)"
    );
}
