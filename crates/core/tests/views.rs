//! Replicated views — §3.2.2's selective replication: "One could imagine
//! an application designer specifying any subset of the data (e.g.
//! projection) or derived values (e.g. views) for replication. Queries on
//! the replicated portion alone would be answered with relatively low
//! latency, albeit with some staleness."

use seaweed_core::{
    boot_staggered, build_world, LiveTables, Seaweed, SeaweedConfig, SeaweedEngine,
};
use seaweed_overlay::OverlayConfig;
use seaweed_sim::{NodeIdx, SimConfig, UniformTopology};
use seaweed_store::{ColumnDef, DataType, Schema, Table, Value};
use seaweed_types::{Duration, Time};

fn world(n: usize, seed: u64) -> (SeaweedEngine, Seaweed<LiveTables>, Schema) {
    let schema = Schema::new(
        "Stats",
        vec![
            ColumnDef::new("kind", DataType::Int, true),
            ColumnDef::new("v", DataType::Int, true),
        ],
    );
    let mut tables = Vec::with_capacity(n);
    for node in 0..n {
        let mut t = Table::new(schema.clone());
        // One row of kind 1 carrying node+1, plus noise.
        t.insert(vec![Value::Int(1), Value::Int(node as i64 + 1)])
            .unwrap();
        t.insert(vec![Value::Int(0), Value::Int(999)]).unwrap();
        tables.push(t);
    }
    let (eng, sw) = build_world(
        Box::new(UniformTopology::new(n, Duration::from_millis(5))),
        seed,
        SimConfig::default(),
        OverlayConfig::default(),
        SeaweedConfig::default(),
        LiveTables::new(tables),
    );
    (eng, sw, schema)
}

const VIEW_SQL: &str = "SELECT SUM(v) FROM Stats WHERE kind = 1";

#[test]
fn view_query_covers_entire_population_including_the_dead() {
    let n = 30;
    let (mut eng, mut sw, schema) = world(n, 1);
    let view = sw.register_view(VIEW_SQL, &schema).unwrap();
    boot_staggered(&mut eng, Duration::from_millis(500));
    sw.run_until(&mut eng, Time::ZERO + Duration::from_mins(10));

    // Take a third of the endsystems down and let detection finish.
    let t0 = eng.now();
    for i in 0..n / 3 {
        eng.schedule_down(
            t0 + Duration::from_secs(i as u64 + 1),
            NodeIdx((i * 3) as u32),
        );
    }
    sw.run_until(&mut eng, t0 + Duration::from_mins(10));
    assert_eq!(eng.num_up(), n - n / 3);

    // The view query answers for *everyone*, dead included, in seconds.
    let origin = NodeIdx((n - 1) as u32);
    let injected = eng.now();
    let h = sw.query_view(&mut eng, origin, view, Duration::from_hours(1));
    let hz = eng.now() + Duration::from_mins(1);
    sw.run_until(&mut eng, hz);

    let q = sw.query(h);
    let agg = q.latest.expect("view answer arrives");
    let expected: f64 = (1..=n as i64).map(|v| v as f64).sum();
    assert_eq!(
        agg.finish(),
        Some(expected),
        "must include stale values of dead endsystems"
    );
    assert_eq!(agg.rows, n as u64);
    // Low latency: seconds, not hours.
    let latency = q.predictor_at.expect("answer timestamped").since(injected);
    assert!(latency < Duration::from_secs(30), "latency {latency}");
}

#[test]
fn view_values_refresh_with_pushes_and_cost_is_charged() {
    let n = 12;
    let (mut eng, mut sw, schema) = world(n, 2);
    let view = sw.register_view(VIEW_SQL, &schema).unwrap();
    boot_staggered(&mut eng, Duration(1));
    sw.run_until(&mut eng, Time::ZERO + Duration::from_hours(1));
    let pushes = sw.stats.meta_pushes;
    assert!(pushes > 0);

    // All alive: the view answer equals a fresh computation.
    let h = sw.query_view(&mut eng, NodeIdx(0), view, Duration::from_mins(30));
    let hz = eng.now() + Duration::from_mins(1);
    sw.run_until(&mut eng, hz);
    let expected: f64 = (1..=n as i64).map(|v| v as f64).sum();
    assert_eq!(sw.query(h).latest.unwrap().finish(), Some(expected));
}

#[test]
fn multiple_views_coexist() {
    let n = 15;
    let (mut eng, mut sw, schema) = world(n, 3);
    let v_sum = sw.register_view(VIEW_SQL, &schema).unwrap();
    let v_max = sw
        .register_view("SELECT MAX(v) FROM Stats WHERE kind = 1", &schema)
        .unwrap();
    let v_cnt = sw
        .register_view("SELECT COUNT(*) FROM Stats", &schema)
        .unwrap();
    boot_staggered(&mut eng, Duration::from_millis(100));
    sw.run_until(&mut eng, Time::ZERO + Duration::from_mins(10));

    let origin = NodeIdx(2);
    let h_sum = sw.query_view(&mut eng, origin, v_sum, Duration::from_mins(30));
    let h_max = sw.query_view(&mut eng, origin, v_max, Duration::from_mins(30));
    let h_cnt = sw.query_view(&mut eng, origin, v_cnt, Duration::from_mins(30));
    let hz = eng.now() + Duration::from_mins(2);
    sw.run_until(&mut eng, hz);

    let expected_sum: f64 = (1..=n as i64).map(|v| v as f64).sum();
    assert_eq!(sw.query(h_sum).latest.unwrap().finish(), Some(expected_sum));
    assert_eq!(sw.query(h_max).latest.unwrap().finish(), Some(n as f64));
    assert_eq!(
        sw.query(h_cnt).latest.unwrap().finish(),
        Some(2.0 * n as f64)
    );
}

#[test]
fn unregistered_view_panics() {
    let n = 5;
    let (mut eng, mut sw, _schema) = world(n, 4);
    boot_staggered(&mut eng, Duration(1));
    sw.run_until(&mut eng, Time::ZERO + Duration::from_mins(5));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = sw.query_view(&mut eng, NodeIdx(0), 7, Duration::from_mins(1));
    }));
    assert!(result.is_err());
}
