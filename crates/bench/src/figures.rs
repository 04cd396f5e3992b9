//! The figures that are one function under several parameters:
//! Figures 3/4 share their panels, Figures 5–8 are one run each.

use seaweed_analytic::{sweep, ModelParams, SweepAxis};
use seaweed_availability::FarsiteConfig;
use seaweed_types::{Duration, Time};
use seaweed_workload::AnemoneConfig;

use crate::cli::Args;
use crate::output::OutDir;
use crate::predsim::PredictionSetup;

/// Writes the four Figure 3 / Figure 4 panels as CSVs with the given
/// filename prefix.
pub fn run_scalability_panels(base: &ModelParams, prefix: &str, points: usize, out: &OutDir) {
    let panels = [
        (SweepAxis::NetworkSize, "a_network_size"),
        (SweepAxis::UpdateRate, "b_update_rate"),
        (SweepAxis::DatabaseSize, "c_database_size"),
        (SweepAxis::ChurnRate, "d_churn_rate"),
    ];
    for (axis, name) in panels {
        let (lo, hi) = axis.default_range();
        let pts = sweep(base, axis, lo, hi, points);
        let rows: Vec<Vec<f64>> = pts
            .iter()
            .map(|p| {
                vec![
                    p.x,
                    p.centralized,
                    p.seaweed,
                    p.dht_replicated,
                    p.pier_5min,
                    p.pier_1h,
                ]
            })
            .collect();
        out.write_csv(
            &format!("{prefix}_{name}.csv"),
            &[
                "x",
                "centralized",
                "seaweed",
                "dht_replicated",
                "pier_5min",
                "pier_1h",
            ],
            &rows,
        );
    }
}

/// Error checkpoints used in the Figures 5–8 right-hand panels.
pub const ERROR_CHECKPOINTS: [(&str, u64); 5] = [
    ("immediate", 0),
    ("after 1 hr", 1),
    ("after 2 hrs", 2),
    ("after 4 hrs", 4),
    ("after 8 hrs", 8),
];

/// Runs one of the completeness-prediction experiments (Figures 5–8):
/// predicted-vs-actual curve for a Tuesday-midnight injection, error
/// panels across four consecutive weekdays and across times of day.
pub fn run_prediction_figure(figure: u32, sql: &str, args: &Args, out: &OutDir) {
    let full = args.has("full");
    let n = args.get("n", if full { 51_663 } else { 2_000 });
    let seed = args.get("seed", figure as u64);
    let weeks = 4u64;
    let track = Duration::from_hours(48);

    println!("Figure {figure}: {sql}");
    println!("  population {n}, trace {weeks} weeks, seed {seed}");
    #[expect(
        clippy::disallowed_methods,
        reason = "operator-facing progress timing for a host-side experiment driver, never feeds simulated time"
    )]
    let t_gen = std::time::Instant::now();
    let (trace, _) = FarsiteConfig::small(n, weeks).generate(seed);
    let anemone = AnemoneConfig {
        horizon: Duration::WEEK * weeks,
        ..AnemoneConfig::default()
    };
    let setup = PredictionSetup::build(trace, &anemone, seed, &[sql]);
    println!(
        "  data + summaries generated in {:.1}s",
        t_gen.elapsed().as_secs_f64()
    );

    // (a) Predicted vs actual completeness; injection Tuesday 00:00 of
    // week 3 (the paper injected Tuesday 20 July 1999 00:00 after a
    // two-week warmup).
    let tue_week3 = Time::ZERO + Duration::from_days(15);
    let run = setup.run(0, tue_week3, track);
    let rows: Vec<Vec<f64>> = run
        .curve(48)
        .iter()
        .map(|&(d, pred, act)| vec![d.as_secs_f64() / 3600.0, pred, act as f64])
        .collect();
    out.write_csv(
        &format!("fig{figure:02}a_predicted_vs_actual.csv"),
        &["hours_since_query", "predicted_rows", "actual_rows"],
        &rows,
    );
    println!(
        "  (a) Tuesday 00:00 injection: total {:.2e} rows; predicted total {:.2e} ({:+.2}% off)",
        run.actual_total() as f64,
        run.predictor.total_rows(),
        run.total_error_pct()
    );

    let mut worst: f64 = 0.0;

    // (b) Errors across four consecutive weekdays (Tue..Fri, 00:00).
    let mut day_rows = Vec::new();
    println!("  (b) prediction error by injection day (%):");
    for day in 0..4u64 {
        let inject = tue_week3 + Duration::from_days(day);
        let r = setup.run(0, inject, track);
        let mut row = vec![day as f64];
        let mut line = format!("      day +{day}:");
        for (_, h) in ERROR_CHECKPOINTS {
            let e = r.error_pct_at(Duration::from_hours(h));
            worst = worst.max(e.abs());
            row.push(e);
            line += &format!(" {e:+.2}");
        }
        let te = r.total_error_pct();
        worst = worst.max(te.abs());
        row.push(te);
        day_rows.push(row);
        println!("{line}  total {te:+.2}");
    }
    out.write_csv(
        &format!("fig{figure:02}b_error_by_day.csv"),
        &["day_offset", "immediate", "h1", "h2", "h4", "h8", "total"],
        &day_rows,
    );

    // (c) Errors across times of day (every 2 h through Tuesday).
    let mut tod_rows = Vec::new();
    for slot in 0..12u64 {
        let inject = tue_week3 + Duration::from_hours(2 * slot);
        let r = setup.run(0, inject, track);
        let mut row = vec![(2 * slot) as f64];
        for (_, h) in ERROR_CHECKPOINTS {
            let e = r.error_pct_at(Duration::from_hours(h));
            worst = worst.max(e.abs());
            row.push(e);
        }
        row.push(r.total_error_pct());
        tod_rows.push(row);
    }
    out.write_csv(
        &format!("fig{figure:02}c_error_by_time_of_day.csv"),
        &["inject_hour", "immediate", "h1", "h2", "h4", "h8", "total"],
        &tod_rows,
    );

    println!("  worst |error| over all injections/checkpoints: {worst:.2}% (paper: < 5%)");
}
