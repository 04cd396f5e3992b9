//! Live dashboard — the extension features working together.
//!
//! The paper sketches two extensions beyond one-shot queries: continuous
//! queries over the same failure-resilient aggregation trees (§3.4) and
//! selective replication of derived values ("views") answered from
//! metadata alone (§3.2.2). This example runs an operations dashboard on
//! both:
//!
//! * a **continuous query** tracks error counts over a sliding 15-minute
//!   window, re-evaluated every 5 minutes by every endsystem;
//! * a **replicated view** answers "total requests ever served, fleet-
//!   wide" in seconds, covering even machines that are currently down
//!   (with push-period staleness).
//!
//! Run with: `cargo run --release --example live_dashboard`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seaweed::harness::{Availability, WorldConfig};
use seaweed_sim::NodeIdx;
use seaweed_store::{ColumnDef, DataType, Schema, Table, Value};
use seaweed_types::{Duration, Time};

fn main() {
    let n = 120;
    let seed = 44;
    let mut rng = StdRng::seed_from_u64(seed);

    // Each server logs requests: a timestamp and whether it errored.
    // Errors spike between minutes 40 and 60 — the incident the
    // dashboard should surface.
    let schema = Schema::new(
        "Log",
        vec![
            ColumnDef::new("ts", DataType::Int, true),
            ColumnDef::new("is_error", DataType::Int, true),
        ],
    );
    let tables: Vec<Table> = (0..n)
        .map(|_| {
            let mut t = Table::new(schema.clone());
            for minute in 0..180i64 {
                for _ in 0..3 {
                    let incident = (40..60).contains(&minute);
                    let p_err = if incident { 0.35 } else { 0.02 };
                    let err = i64::from(rng.gen::<f64>() < p_err);
                    t.insert(vec![
                        Value::Int(minute * 60 + rng.gen_range(0..60)),
                        Value::Int(err),
                    ])
                    .unwrap();
                }
            }
            t
        })
        .collect();

    let mut cfg = WorldConfig::new(n, seed);
    cfg.uniform_latency = Duration::from_millis(4);
    let (mut eng, mut sw) = cfg.build_with_tables(
        tables,
        Availability::AllUp {
            stagger: Duration::from_millis(200),
        },
    );

    // Register the fleet-wide totals view BEFORE machines come up so the
    // very first metadata pushes carry it.
    let v_total = sw
        .register_view("SELECT COUNT(*) FROM Log", &schema)
        .expect("view");

    sw.run_until(&mut eng, Time::ZERO + Duration::from_mins(5));
    println!("{} servers up; replicated view registered", eng.num_up());

    // Standing error monitor: errors in the last 15 minutes, re-evaluated
    // every 5 minutes.
    let monitor = sw
        .inject_continuous_query(
            &mut eng,
            NodeIdx(0),
            "SELECT SUM(is_error) FROM Log WHERE ts >= NOW() - 900 AND ts <= NOW()",
            Duration::from_mins(5),
            Duration::from_hours(4),
            &schema,
        )
        .expect("valid continuous query");

    println!(
        "\n{:<10}{:>18}{:>14}",
        "time", "errors (15 min)", "servers up"
    );
    for minute in [10u64, 20, 30, 45, 55, 65, 80, 100] {
        // A little churn along the way.
        if minute == 30 {
            for i in 50..58 {
                eng.schedule_down(eng.now() + Duration::from_secs(i), NodeIdx(i as u32));
            }
        }
        if minute == 65 {
            for i in 50..58 {
                eng.schedule_up(eng.now() + Duration::from_secs(i), NodeIdx(i as u32));
            }
        }
        sw.run_until(&mut eng, Time::ZERO + Duration::from_mins(minute));
        let q = sw.query(monitor);
        let errors = q.latest.and_then(|a| a.finish()).unwrap_or(0.0);
        let marker = if errors > 500.0 { "  << incident!" } else { "" };
        println!(
            "{:<10}{:>18.0}{:>14}{marker}",
            format!("{}m", minute),
            errors,
            eng.num_up()
        );
    }

    // One view query answers the fleet-wide total instantly — including
    // the servers currently down.
    let asked = eng.now();
    let h = sw.query_view(&mut eng, NodeIdx(20), v_total, Duration::from_mins(30));
    let hz = eng.now() + Duration::from_secs(30);
    sw.run_until(&mut eng, hz);
    let q = sw.query(h);
    println!(
        "\nfleet-wide total requests (replicated view): {:.0} across {} endsystems, answered in {}",
        q.latest.and_then(|a| a.finish()).unwrap_or(0.0),
        q.latest_version, // coverage count for view answers
        q.predictor_at
            .map_or_else(|| "?".into(), |t| t.since(asked).to_string()),
    );
    println!("ground truth: {} requests", n * 180 * 3);
}
