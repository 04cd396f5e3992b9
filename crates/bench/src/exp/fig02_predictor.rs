//! Figure 2: an example completeness predictor — the cumulative expected
//! row count over (log-scaled) time that Seaweed shows the user.

use crate::predsim::PredictionSetup;
use crate::{Args, OutDir};
use seaweed_availability::FarsiteConfig;
use seaweed_types::{Duration, Time};
use seaweed_workload::{AnemoneConfig, QUERY_HTTP_BYTES};

pub fn run(args: &Args, out: &OutDir) {
    let n = args.get("n", 1_000usize);
    let seed = args.get("seed", 2u64);
    let weeks = 3u64;

    println!("Figure 2: example completeness predictor ({n} endsystems)");
    let (trace, _) = FarsiteConfig::small(n, weeks).generate(seed);
    let anemone = AnemoneConfig {
        horizon: Duration::WEEK * weeks,
        ..AnemoneConfig::default()
    };
    let setup = PredictionSetup::build(trace, &anemone, seed, &[QUERY_HTTP_BYTES]);

    // Inject late Tuesday evening of week 2 so the overnight/morning
    // structure is visible, as in the paper's illustration.
    let inject = Time::ZERO + Duration::from_days(8) + Duration::from_hours(22);
    let run = setup.run(0, inject, Duration::from_days(4));

    let p = &run.predictor;
    let rows: Vec<Vec<f64>> = p
        .curve()
        .iter()
        .map(|&(d, rows)| vec![d.as_secs_f64(), rows, rows / p.total_rows().max(1e-9)])
        .collect();
    out.write_csv(
        "fig02_predictor.csv",
        &["delay_secs", "expected_rows", "completeness"],
        &rows,
    );

    println!("  query: {QUERY_HTTP_BYTES}");
    println!("  injected at {inject} (Tuesday 22:00)");
    println!("  expected total rows: {:.0}", p.total_rows());
    let mut last = -1.0f64;
    for (label, d) in [
        ("immediately", Duration::ZERO),
        ("after 1 min", Duration::from_mins(1)),
        ("after 1 hour", Duration::from_hours(1)),
        ("after 4 hours", Duration::from_hours(4)),
        ("after 12 hours", Duration::from_hours(12)),
        ("after 1 day", Duration::from_days(1)),
        ("after 3 days", Duration::from_days(3)),
    ] {
        let c = p.completeness_at(d);
        assert!(c >= last, "predictor must be cumulative");
        last = c;
        println!("  {label:<15}{:>6.1}% complete", c * 100.0);
    }
    if let Some(d) = p.delay_for_completeness(0.99) {
        println!("  -> a user wanting 99% completeness should wait about {d}");
    }
}
