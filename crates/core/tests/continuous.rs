//! Continuous queries — the §3.4 extension ("The same protocol can be
//! extended easily to support continuous queries in a failure-resilient
//! manner").
//!
//! Endsystems hold timestamped rows; a continuous COUNT over a sliding
//! `NOW()` window must change across epochs as the window moves, keep
//! counting each endsystem exactly once per epoch, and survive churn.

use seaweed_core::{
    boot_staggered, build_world, LiveTables, Seaweed, SeaweedConfig, SeaweedEngine,
};
use seaweed_overlay::OverlayConfig;
use seaweed_sim::{NodeIdx, SimConfig, UniformTopology};
use seaweed_store::{ColumnDef, DataType, Schema, Table, Value};
use seaweed_types::{Duration, Time};

/// Each endsystem has one event per minute for the first `E` minutes of
/// the simulation, so a sliding 10-minute window over `ts` counts
/// 10 × live endsystems while events are fresh and decays afterwards.
fn tables(n: usize, minutes: i64) -> LiveTables {
    let schema = Schema::new(
        "Events",
        vec![
            ColumnDef::new("ts", DataType::Int, true),
            ColumnDef::new("v", DataType::Int, true),
        ],
    );
    let mut out = Vec::with_capacity(n);
    for node in 0..n {
        let mut t = Table::new(schema.clone());
        for m in 0..minutes {
            t.insert(vec![Value::Int(m * 60), Value::Int(node as i64)])
                .unwrap();
        }
        out.push(t);
    }
    LiveTables::new(out)
}

fn world(n: usize, seed: u64, minutes: i64) -> (SeaweedEngine, Seaweed<LiveTables>, Schema) {
    let provider = tables(n, minutes);
    let schema = provider.schema().clone();
    let (eng, sw) = build_world(
        Box::new(UniformTopology::new(n, Duration::from_millis(5))),
        seed,
        SimConfig::default(),
        OverlayConfig::default(),
        SeaweedConfig::default(),
        provider,
    );
    (eng, sw, schema)
}

fn settle(eng: &mut SeaweedEngine, sw: &mut Seaweed<LiveTables>) {
    boot_staggered(eng, Duration::from_millis(500));
    sw.run_until(eng, Time::ZERO + Duration::from_mins(5));
}

const WINDOW: &str = "SELECT COUNT(*) FROM Events WHERE ts >= NOW() - 600 AND ts <= NOW()";

#[test]
fn sliding_window_rolls_forward() {
    let n = 20;
    // Events cover the first 60 minutes.
    let (mut eng, mut sw, schema) = world(n, 1, 60);
    settle(&mut eng, &mut sw);

    let h = sw
        .inject_continuous_query(
            &mut eng,
            NodeIdx(0),
            WINDOW,
            Duration::from_mins(2),
            Duration::from_hours(3),
            &schema,
        )
        .unwrap();

    // Mid-stream (t ≈ 30 min): the 10-minute window holds 10-11 events
    // per endsystem.
    let hz = Time::ZERO + Duration::from_mins(30);
    sw.run_until(&mut eng, hz);
    let q = sw.query(h);
    let mid = q.latest.unwrap().finish().unwrap();
    let per_node_mid = mid / n as f64;
    assert!(
        (10.0..=11.5).contains(&per_node_mid),
        "mid-stream count/node = {per_node_mid}"
    );

    // After the events stop (t = 60 min) the window drains: by t = 75 min
    // the count must be zero.
    sw.run_until(&mut eng, Time::ZERO + Duration::from_mins(76));
    let q = sw.query(h);
    assert_eq!(
        q.latest.unwrap().finish(),
        Some(0.0),
        "window should have drained"
    );
    // The origin observed the rise-then-fall shape.
    let max_rows = q.progress.iter().map(|&(_, r, _)| r).max().unwrap();
    assert!(max_rows >= (n * 10) as u64, "peak {max_rows}");
}

#[test]
fn epochs_count_each_endsystem_exactly_once() {
    let n = 15;
    let (mut eng, mut sw, schema) = world(n, 2, 120);
    settle(&mut eng, &mut sw);
    let h = sw
        .inject_continuous_query(
            &mut eng,
            NodeIdx(3),
            WINDOW,
            Duration::from_mins(2),
            Duration::from_hours(2),
            &schema,
        )
        .unwrap();
    // Sample several epochs: rows must always be a multiple-ish of the
    // population (each node contributes its window count once; counts
    // differ by at most one event between nodes since data is aligned).
    for minutes in [10u64, 20, 40, 60] {
        sw.run_until(&mut eng, Time::ZERO + Duration::from_mins(minutes));
        let q = sw.query(h);
        let agg = q.latest.expect("updates flowing");
        // All endsystems contribute every epoch: per-node counts in a
        // sliding 10-min window are 10 or 11 depending on phase.
        let per_node = agg.finish().unwrap() / n as f64;
        assert!(
            (9.9..=11.1).contains(&per_node),
            "at {minutes} min: per-node {per_node} (duplicated or lost epochs?)"
        );
    }
}

#[test]
fn continuous_query_survives_churn() {
    let n = 20;
    let (mut eng, mut sw, schema) = world(n, 3, 240);
    settle(&mut eng, &mut sw);
    let h = sw
        .inject_continuous_query(
            &mut eng,
            NodeIdx(1),
            WINDOW,
            Duration::from_mins(2),
            Duration::from_hours(4),
            &schema,
        )
        .unwrap();
    let t0 = eng.now();
    // Bounce a third of the endsystems mid-stream.
    for i in 0..n / 3 {
        let node = NodeIdx((i * 3 + 2) as u32);
        eng.schedule_down(t0 + Duration::from_mins(5 + i as u64), node);
        eng.schedule_up(t0 + Duration::from_mins(25 + i as u64), node);
    }
    sw.run_until(&mut eng, t0 + Duration::from_mins(90));
    let q = sw.query(h);
    assert!(q.active);
    let per_node = q.latest.unwrap().finish().unwrap() / n as f64;
    // After everyone is back and a few epochs have passed, the rolling
    // count covers the full population again.
    assert!(
        (9.9..=11.1).contains(&per_node),
        "per-node {per_node} after churn (rejoined endsystems must resume epochs)"
    );
}

#[test]
fn local_updates_flow_into_continuous_results() {
    // The paper's workload is "frequent local updates and relatively
    // infrequent global one-shot queries": rows inserted at an endsystem
    // mid-flight must show up in subsequent epochs.
    let n = 12;
    let (mut eng, mut sw, schema) = world(n, 9, 0); // no pre-existing events
    settle(&mut eng, &mut sw);
    let h = sw
        .inject_continuous_query(
            &mut eng,
            NodeIdx(0),
            "SELECT COUNT(*) FROM Events WHERE v >= 0",
            Duration::from_mins(2),
            Duration::from_hours(2),
            &schema,
        )
        .unwrap();
    let hz = eng.now() + Duration::from_mins(5);
    sw.run_until(&mut eng, hz);
    assert_eq!(sw.query(h).latest.unwrap().finish(), Some(0.0));

    // Insert rows locally at three endsystems and refresh their summaries.
    for node in [2usize, 5, 7] {
        for i in 0..4i64 {
            sw.provider
                .table_mut(node)
                .insert(vec![Value::Int(i * 60), Value::Int(node as i64)])
                .unwrap();
        }
        sw.provider.refresh_summary(node);
    }
    let hz = eng.now() + Duration::from_mins(10);
    sw.run_until(&mut eng, hz);
    assert_eq!(
        sw.query(h).latest.unwrap().finish(),
        Some(12.0),
        "locally inserted rows must appear in the next epochs"
    );
}

#[test]
fn expiry_stops_epochs() {
    let n = 10;
    let (mut eng, mut sw, schema) = world(n, 4, 240);
    settle(&mut eng, &mut sw);
    let h = sw
        .inject_continuous_query(
            &mut eng,
            NodeIdx(0),
            WINDOW,
            Duration::from_mins(1),
            Duration::from_mins(10),
            &schema,
        )
        .unwrap();
    let hz = eng.now() + Duration::from_mins(30);
    sw.run_until(&mut eng, hz);
    let q = sw.query(h);
    assert!(!q.active);
    let submissions_at_expiry = sw.stats.result_submissions;
    let hz = eng.now() + Duration::from_mins(30);
    sw.run_until(&mut eng, hz);
    assert_eq!(
        sw.stats.result_submissions, submissions_at_expiry,
        "epochs must stop after expiry"
    );
}
