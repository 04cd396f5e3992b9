//! §4.3.3 latency and per-query cost metrics: time from query injection
//! to the completeness predictor reaching the user, versus network size,
//! plus per-endsystem dissemination and predictor-aggregation bytes.
//!
//! Paper: 3.1 s at 2,000 endsystems → 12.0 s at 51,663; dissemination
//! 1,043 B per query per endsystem, predictor aggregation 776 B.

use crate::fullsim::{run_full, FullSimConfig};
use crate::{Args, OutDir, OutTable};
use seaweed_availability::FarsiteConfig;
use seaweed_types::{Duration, Time};

pub fn run(args: &Args, out: &OutDir) {
    let full = args.has("full");
    let seed = args.get("seed", 12u64);
    let sizes: Vec<usize> = if full {
        vec![2_000, 8_000, 20_000, 51_663]
    } else {
        vec![250, 500, 1_000, 2_000]
    };

    println!("Predictor latency and per-query cost vs network size");
    let mut rows = Vec::new();
    let mut t = OutTable::new(&[
        "N",
        "latency",
        "dissem B/endsystem",
        "predictor B/endsystem",
    ]);
    for &n in &sizes {
        let days = 3u64;
        let (trace, _) = {
            let mut fc = FarsiteConfig::small(n, 1);
            fc.horizon = Duration::from_days(days);
            fc.generate(seed)
        };
        let mut cfg = FullSimConfig::new(seed);
        cfg.injections = vec![Time::ZERO + Duration::from_days(1)];
        let result = run_full(&cfg, &trace);
        let q = &result.queries[0];
        let latency = q.predictor_latency.expect("predictor must arrive");
        let dissem = result.seaweed_stats.dissem_bytes as f64 / n as f64;
        let pred = result.seaweed_stats.predictor_bytes as f64 / n as f64;
        rows.push(vec![n as f64, latency.as_secs_f64(), dissem, pred]);
        t.row(vec![
            format!("{n}"),
            format!("{latency}"),
            format!("{dissem:.0}"),
            format!("{pred:.0}"),
        ]);
    }
    out.write_csv(
        "lat01_predictor_latency.csv",
        &[
            "n",
            "latency_secs",
            "dissem_bytes_per_endsystem",
            "predictor_bytes_per_endsystem",
        ],
        &rows,
    );
    t.print();
    println!(
        "  (paper: 3.1 s at 2,000 endsystems, 12.0 s at 51,663; 1,043 B and 776 B per endsystem)"
    );
}
