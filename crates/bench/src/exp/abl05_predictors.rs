//! Ablation: alternative availability predictors.
//!
//! §5: "others have developed alternative predictors (ref. 24) which could
//! potentially improve Seaweed's performance." Compares three return-time
//! predictors on the Farsite-like trace:
//!
//! * the paper's model (down-duration + up-hour, periodic classification);
//! * an hour-of-week availability profile (weekly structure, 7× state);
//! * a naive fixed-delay baseline (always "8 hours").

use crate::predsim::PredictionSetup;
use crate::{jobs, run_sweep, Args, OutDir, OutTable};
use seaweed_availability::{FarsiteConfig, HourOfWeekModel, ModelConfig, ReturnPrediction};
use seaweed_types::{Duration, Time};
use seaweed_workload::{AnemoneConfig, QUERY_HTTP_BYTES};

pub fn run(args: &Args, out: &OutDir) {
    let n = args.get("n", 1_200usize);
    let seed = args.get("seed", 18u64);
    let weeks = 4u64;

    println!("Ablation: availability predictors ({n} endsystems, {weeks}-week trace)");
    let (trace, _) = FarsiteConfig::small(n, weeks).generate(seed);
    let anemone = AnemoneConfig {
        horizon: Duration::WEEK * weeks,
        ..AnemoneConfig::default()
    };
    let setup = PredictionSetup::build(trace, &anemone, seed, &[QUERY_HTTP_BYTES]);

    // Injection times chosen to stress different structure: weekday
    // night, weekday noon, Friday evening (weekend gap!), Sunday noon.
    let injections = [
        ("Tue 00:00", Time::ZERO + Duration::from_days(15)),
        (
            "Wed 12:00",
            Time::ZERO + Duration::from_days(16) + Duration::from_hours(12),
        ),
        (
            "Fri 20:00",
            Time::ZERO + Duration::from_days(18) + Duration::from_hours(20),
        ),
        (
            "Sun 12:00",
            Time::ZERO + Duration::from_days(20) + Duration::from_hours(12),
        ),
    ];
    let checkpoints = [1u64, 2, 4, 8, 12, 24, 48];

    enum Predictor {
        Paper,
        HourOfWeek,
        FixedDelay,
    }
    let specs = vec![
        ("paper model (48 B)", Predictor::Paper),
        ("hour-of-week profile (336 B)", Predictor::HourOfWeek),
        ("fixed 8 h baseline", Predictor::FixedDelay),
    ];
    let workers = jobs(args, specs.len());
    let sweep = run_sweep(specs, workers, |idx, &(name, ref kind)| {
        let run_one = |inject: Time| match kind {
            Predictor::Paper => {
                setup.run_with_model(0, inject, Duration::from_hours(48), ModelConfig::default())
            }
            Predictor::HourOfWeek => setup.run_with_return_predictor(
                0,
                inject,
                Duration::from_hours(48),
                |trace, node, _ds, now| {
                    HourOfWeekModel::learn_from_trace(trace, node, now).predict_return(now)
                },
            ),
            Predictor::FixedDelay => setup.run_with_return_predictor(
                0,
                inject,
                Duration::from_hours(48),
                |_t, _n, _ds, _now| ReturnPrediction::point(Duration::from_hours(8)),
            ),
        };
        let mut errs = Vec::new();
        for &(_, inject) in &injections {
            let run = run_one(inject);
            for &h in &checkpoints {
                errs.push(run.error_pct_at(Duration::from_hours(h)).abs());
            }
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        let worst = errs.iter().copied().fold(0.0f64, f64::max);
        (name, idx as f64, mean, worst)
    });

    let mut table = OutTable::new(&["predictor", "mean |error| %", "worst |error| %"]);
    let mut rows = Vec::new();
    for (name, idx, mean, worst) in sweep {
        table.row(vec![
            name.into(),
            format!("{mean:.2}"),
            format!("{worst:.2}"),
        ]);
        rows.push(vec![idx, mean, worst]);
    }

    out.write_csv(
        "abl05_predictors.csv",
        &["predictor", "mean_abs_error_pct", "worst_abs_error_pct"],
        &rows,
    );
    table.print();
    println!("  (the hour-of-week profile should win around weekends, at 7x the metadata)");
}
