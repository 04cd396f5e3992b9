//! Obs 01: per-query lifecycle timelines — predicted vs *actual*
//! completeness over time, from the same run.
//!
//! Every other prediction figure compares the predictor against a
//! replayed availability trace. This one uses the tentpole
//! observability layer instead: the full Seaweed stack runs with
//! event tracing enabled, each query's
//! [`QueryTimeline`](seaweed_core::QueryTimeline) records its
//! actual fragment arrivals, and the CSV lays the predictor's curve
//! alongside the actual completeness series at fixed checkpoints,
//! plus the per-stage latencies (injection → predictor, injection →
//! first result).
//!
//! A subset of endsystems is taken down before injection and returns
//! on a staggered schedule afterwards, so the actual curve climbs as
//! the predictor said it would. With a fixed `--seed` both the CSV and
//! the exported JSONL trace of the first seed are byte-stable across
//! runs; CI runs the experiment twice and compares them.

use crate::{Args, OutDir, OutTable};
use seaweed_core::{chaos_world, inject_chaos_query, SeaweedConfig, CHAOS_T0};
use seaweed_sim::{NodeIdx, SimConfig, TraceConfig};
use seaweed_types::{Duration, Time};

/// Completeness checkpoints after injection, in seconds.
const CHECKPOINTS_S: [u64; 8] = [0, 15, 30, 60, 120, 300, 600, 1200];

struct SeedOutcome {
    seed: u64,
    /// `(delay_s, predicted, actual, rows)` per checkpoint.
    curve: Vec<(u64, f64, f64, u64)>,
    dissem_msgs: u64,
    dissem_fanout: u64,
    dissem_reissues: u64,
    give_ups: u64,
    submissions: u64,
    result_retries: u64,
    time_to_predictor_ms: f64,
    time_to_first_result_ms: f64,
    metrics_lines: usize,
    trace_jsonl: Option<String>,
}

fn run_seed(seed: u64, n: usize, routers: usize, export_trace: bool) -> SeedOutcome {
    // The chaos world without the chaos: half the loss, no fault plan,
    // every event traced.
    let (mut eng, mut sw, schema) = chaos_world(
        n,
        routers,
        seed,
        |_| SimConfig {
            loss_rate: 0.005,
            trace: Some(TraceConfig { capacity: 1 << 20 }),
            ..SimConfig::default()
        },
        SeaweedConfig::default(),
    );
    // Every fifth endsystem leaves before injection and returns on a
    // staggered schedule after it, so the predictor has unavailable
    // rows to forecast and the actual curve climbs as they return.
    for (returner, i) in (5..n).step_by(5).enumerate() {
        eng.schedule_down(Time::from_secs(560), NodeIdx(i as u32));
        eng.schedule_up(
            Time::from_secs(660 + returner as u64 * 120),
            NodeIdx(i as u32),
        );
    }
    sw.run_until(&mut eng, CHAOS_T0);
    let h = inject_chaos_query(&mut eng, &mut sw, &schema);
    let injected = eng.now();
    sw.run_until(&mut eng, injected + Duration::from_secs(1800));

    // All checkpoints are computed retrospectively from the recorded
    // timeline — pure observation, no extra protocol activity.
    let q = sw.query(h);
    let tl = sw.timeline(h);
    let total = q.predictor.as_ref().map_or(0.0, |p| p.total_rows());
    let curve = CHECKPOINTS_S
        .iter()
        .map(|&s| {
            let d = Duration::from_secs(s);
            let predicted = q.predictor.as_ref().map_or(-1.0, |p| p.completeness_at(d));
            let actual = tl
                .actual_completeness_at(injected + d, total)
                .unwrap_or(-1.0);
            (s, predicted, actual, tl.rows_at(injected + d))
        })
        .collect();

    let mut metrics = eng.metrics();
    metrics.merge(sw.metrics());
    let metrics_lines = metrics.render().lines().count();
    let trace_jsonl = if export_trace {
        eng.take_tracer().map(|t| t.export_jsonl())
    } else {
        None
    };

    SeedOutcome {
        seed,
        curve,
        dissem_msgs: tl.dissem_msgs,
        dissem_fanout: tl.dissem_fanout,
        dissem_reissues: tl.dissem_reissues,
        give_ups: tl.give_ups,
        submissions: tl.submissions,
        result_retries: tl.result_retries,
        time_to_predictor_ms: tl
            .time_to_predictor()
            .map_or(-1.0, |d| d.as_secs_f64() * 1e3),
        time_to_first_result_ms: tl
            .time_to_first_result()
            .map_or(-1.0, |d| d.as_secs_f64() * 1e3),
        metrics_lines,
        trace_jsonl,
    }
}

pub fn run(args: &Args, out: &OutDir) {
    let n = args.get("n", 36usize);
    let routers = args.get("routers", 24usize);
    let seed0 = args.get("seed", 42u64);
    let seeds = args.get("seeds", 4u64);

    println!(
        "Obs 01: {n} endsystems, {routers} routers, seeds {seed0}..{}",
        seed0 + seeds
    );
    #[expect(
        clippy::disallowed_methods,
        reason = "operator-facing progress timing for a host-side experiment driver, never feeds simulated time"
    )]
    let t0 = std::time::Instant::now();
    let outcomes: Vec<SeedOutcome> = (seed0..seed0 + seeds)
        .map(|s| run_seed(s, n, routers, s == seed0))
        .collect();
    println!("  simulated in {:.1}s", t0.elapsed().as_secs_f64());

    let rows: Vec<Vec<f64>> = outcomes
        .iter()
        .flat_map(|o| {
            o.curve.iter().map(move |&(s, predicted, actual, rows)| {
                vec![
                    o.seed as f64,
                    s as f64,
                    predicted,
                    actual,
                    rows as f64,
                    o.dissem_msgs as f64,
                    o.dissem_fanout as f64,
                    o.dissem_reissues as f64,
                    o.give_ups as f64,
                    o.submissions as f64,
                    o.result_retries as f64,
                    o.time_to_predictor_ms,
                    o.time_to_first_result_ms,
                ]
            })
        })
        .collect();
    out.write_csv(
        "obs01.csv",
        &[
            "seed",
            "checkpoint_s",
            "predicted",
            "actual",
            "rows",
            "dissem_msgs",
            "dissem_fanout",
            "dissem_reissues",
            "give_ups",
            "submissions",
            "result_retries",
            "time_to_predictor_ms",
            "time_to_first_result_ms",
        ],
        &rows,
    );

    let jsonl = outcomes[0]
        .trace_jsonl
        .as_deref()
        .expect("tracing enabled for first seed");
    let trace_out = out.write("obs01_trace.jsonl", jsonl);
    println!(
        "  wrote {} trace records to {trace_out}",
        jsonl.lines().count()
    );

    let mut t = OutTable::new(&[
        "seed",
        "pred@60s",
        "act@60s",
        "pred@600s",
        "act@600s",
        "fanout",
        "subs",
        "t_pred_ms",
        "t_first_ms",
        "metrics",
    ]);
    for o in &outcomes {
        let at = |s: u64| {
            o.curve
                .iter()
                .find(|&&(cs, ..)| cs == s)
                .map(|&(_, p, a, _)| (p, a))
                .unwrap_or((-1.0, -1.0))
        };
        let (p60, a60) = at(60);
        let (p600, a600) = at(600);
        t.row(vec![
            o.seed.to_string(),
            format!("{p60:.2}"),
            format!("{a60:.2}"),
            format!("{p600:.2}"),
            format!("{a600:.2}"),
            o.dissem_fanout.to_string(),
            o.submissions.to_string(),
            format!("{:.1}", o.time_to_predictor_ms),
            format!("{:.1}", o.time_to_first_result_ms),
            format!("{} lines", o.metrics_lines),
        ]);
    }
    t.print();
}
