//! Ablation: histogram bucket budget.
//!
//! The metadata size h and the row-estimate accuracy both grow with the
//! number of histogram buckets; this sweep quantifies the trade-off on
//! real Anemone fragments for all four paper queries.

use crate::{jobs, run_sweep, Args, OutDir, OutTable};
use seaweed_store::exec::count_matching;
use seaweed_store::{DataSummary, Query};
use seaweed_types::Duration;
use seaweed_workload::{flow_schema, paper_queries, AnemoneConfig};

pub fn run(args: &Args, out: &OutDir) {
    let n = args.get("n", 60usize);
    let seed = args.get("seed", 15u64);

    println!("Ablation: histogram buckets vs metadata size vs estimate error ({n} fragments)");
    let schema = flow_schema();
    let anemone = AnemoneConfig {
        horizon: Duration::from_days(7),
        ..AnemoneConfig::default()
    };
    let tables: Vec<_> = (0..n)
        .map(|i| anemone.generate_flow_table(seed, i, &[]))
        .collect();
    let bound: Vec<_> = paper_queries()
        .iter()
        .map(|pq| Query::parse(pq.sql).unwrap().bind(&schema, 0).unwrap())
        .collect();
    let exact: Vec<u64> = bound
        .iter()
        .map(|b| tables.iter().map(|t| count_matching(b, t)).sum())
        .collect();

    let bucket_counts = vec![2usize, 4, 8, 16, 32, 64, 128, 200];
    let workers = jobs(args, bucket_counts.len());
    let sweep = run_sweep(bucket_counts, workers, |_, &buckets| {
        let summaries: Vec<_> = tables
            .iter()
            .map(|t| DataSummary::build_with_buckets(t, buckets))
            .collect();
        let h_mean: f64 = summaries
            .iter()
            .map(|s| f64::from(s.wire_size()))
            .sum::<f64>()
            / n as f64;
        let mut errs = Vec::new();
        for (qi, b) in bound.iter().enumerate() {
            let est: f64 = summaries.iter().map(|s| s.estimate_rows(b)).sum();
            let err = 100.0 * (est - exact[qi] as f64).abs() / (exact[qi] as f64).max(1.0);
            errs.push(err);
        }
        let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
        let worst = errs.iter().copied().fold(0.0f64, f64::max);
        (buckets, h_mean, mean_err, worst)
    });
    let mut rows = Vec::new();
    let mut table = OutTable::new(&[
        "buckets",
        "h (bytes)",
        "mean |error| %",
        "worst query |error| %",
    ]);
    for (buckets, h_mean, mean_err, worst) in sweep {
        rows.push(vec![buckets as f64, h_mean, mean_err, worst]);
        table.row(vec![
            format!("{buckets}"),
            format!("{h_mean:.0}"),
            format!("{mean_err:.3}"),
            format!("{worst:.3}"),
        ]);
    }
    out.write_csv(
        "abl02_histogram_buckets.csv",
        &[
            "buckets",
            "h_bytes",
            "mean_abs_error_pct",
            "worst_abs_error_pct",
        ],
        &rows,
    );
    table.print();
    println!("  (the paper replicated 5 histograms totalling h = 6,473 B per endsystem)");
}
