//! Ablation: availability-model classification threshold.
//!
//! §3.2.1 classifies an endsystem as periodic when the up-event hour
//! distribution's peak-to-mean ratio exceeds 2. Sweeps that threshold
//! (and the minimum-observation gate) and measures completeness
//! prediction error on the Farsite-like trace.

use crate::predsim::PredictionSetup;
use crate::{jobs, run_sweep, Args, OutDir, OutTable};
use seaweed_availability::{FarsiteConfig, ModelConfig};
use seaweed_types::{Duration, Time};
use seaweed_workload::{AnemoneConfig, QUERY_HTTP_BYTES};

pub fn run(args: &Args, out: &OutDir) {
    let n = args.get("n", 1_000usize);
    let seed = args.get("seed", 17u64);
    let weeks = 4u64;

    println!("Ablation: periodic-classification threshold ({n} endsystems)");
    let (trace, _) = FarsiteConfig::small(n, weeks).generate(seed);
    let anemone = AnemoneConfig {
        horizon: Duration::WEEK * weeks,
        ..AnemoneConfig::default()
    };
    let setup = PredictionSetup::build(trace, &anemone, seed, &[QUERY_HTTP_BYTES]);

    let injections: Vec<Time> = (0..4)
        .map(|d| Time::ZERO + Duration::from_days(15 + d) + Duration::from_hours(22))
        .collect();
    let checkpoints = [1u64, 2, 4, 8, 12, 24];

    let settings = vec![
        (1.0, 0u32),
        (2.0, 0),
        (2.0, 8),
        (3.0, 8),
        (5.0, 8),
        (1e9, 0), // periodic classification disabled entirely
    ];
    let workers = jobs(args, settings.len());
    let sweep = run_sweep(settings, workers, |_, &(threshold, min_obs)| {
        let cfg = ModelConfig {
            periodic_threshold: threshold,
            min_periodic_observations: min_obs,
        };
        let mut errs = Vec::new();
        for &inject in &injections {
            let run = setup.run_with_model(0, inject, Duration::from_hours(48), cfg);
            for &h in &checkpoints {
                errs.push(run.error_pct_at(Duration::from_hours(h)).abs());
            }
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        let worst = errs.iter().copied().fold(0.0f64, f64::max);
        (threshold, min_obs, mean, worst)
    });
    let mut rows = Vec::new();
    let mut t = OutTable::new(&["threshold", "min obs", "mean |error| %", "worst |error| %"]);
    for (threshold, min_obs, mean, worst) in sweep {
        rows.push(vec![threshold.min(1e6), f64::from(min_obs), mean, worst]);
        let label = if threshold > 1e6 {
            "disabled".to_owned()
        } else {
            format!("{threshold:.1}")
        };
        t.row(vec![
            label,
            format!("{min_obs}"),
            format!("{mean:.2}"),
            format!("{worst:.2}"),
        ]);
    }
    out.write_csv(
        "abl04_periodic_threshold.csv",
        &[
            "threshold",
            "min_observations",
            "mean_abs_error_pct",
            "worst_abs_error_pct",
        ],
        &rows,
    );
    t.print();
    println!("  (paper uses threshold 2; diurnal machines need the periodic path)");
}
