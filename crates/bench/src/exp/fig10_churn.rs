//! Figure 10: Seaweed overhead under high (Gnutella) churn.
//!
//! Paper: a 60-hour Gnutella activity trace, 7,602 endsystems, departure
//! rate 9.46e-5 per online endsystem per second (23× Farsite); mean tx
//! overhead 472 B/s per online endsystem, 99th percentile 1,515 B/s —
//! i.e. the overhead grows only 7× while churn grows 23×.

use crate::fullsim::{run_full, write_bandwidth_cdf, write_overhead_timeseries, FullSimConfig};
use crate::{Args, OutDir, OutTable};
use seaweed_availability::GnutellaConfig;
use seaweed_types::{Duration, Time};

pub fn run(args: &Args, out: &OutDir) {
    let full = args.has("full");
    let n = args.get("n", if full { 7_602 } else { 1_200 });
    let hours = args.get("hours", 60u64);
    let seed = args.get("seed", 10u64);

    println!("Figure 10: {n} endsystems under Gnutella-like churn, {hours} h");
    let trace = GnutellaConfig::small(n, hours).generate(seed);
    let stats = trace.stats();
    println!(
        "  trace: availability {:.1}%, departures {:.2e}/online/s (paper: 9.46e-5)",
        stats.mean_availability * 100.0,
        stats.departure_rate_per_online_sec,
    );

    let mut cfg = FullSimConfig::new(seed);
    cfg.injections = vec![Time::ZERO + Duration::from_hours(hours / 2)];
    #[expect(
        clippy::disallowed_methods,
        reason = "operator-facing progress timing for a host-side experiment driver, never feeds simulated time"
    )]
    let t0 = std::time::Instant::now();
    let result = run_full(&cfg, &trace);
    println!(
        "  simulated in {:.1}s ({} messages)",
        t0.elapsed().as_secs_f64(),
        result.messages_sent
    );

    write_overhead_timeseries(out, "fig10a_churn_timeseries.csv", &result.report);
    write_bandwidth_cdf(out, "fig10b_churn_cdf.csv", &result.report);

    let mean = result.report.mean_tx_total_per_online_bps();
    let mut t = OutTable::new(&["metric", "measured", "paper"]);
    t.row(vec![
        "mean tx B/s per online".into(),
        format!("{mean:.0}"),
        "472".into(),
    ]);
    t.row(vec![
        "99th pct tx B/s".into(),
        format!("{:.0}", result.report.tx_percentile(99.0)),
        "1515".into(),
    ]);
    t.row(vec![
        "zero-hours fraction".into(),
        format!("{:.2}", result.report.tx_zero_fraction()),
        "~0.57 (1 - availability)".into(),
    ]);
    t.print();
    println!("  protocol: {:?}", result.seaweed_stats);
    println!("  overlay:  {:?}", result.overlay_stats);
}
