//! End-to-end protocol tests: the full Seaweed stack (engine → Pastry →
//! Seaweed) on synthetic tables with known ground truth.

use seaweed_availability::GnutellaConfig;
use seaweed_core::{
    boot_staggered, build_world, flag_fixture, LiveTables, Seaweed, SeaweedConfig, SeaweedEngine,
};
use seaweed_overlay::OverlayConfig;
use seaweed_sim::{
    payload_fallback_clones, NodeIdx, SimConfig, TraceConfig, TraceEvent, UniformTopology,
};
use seaweed_store::{Schema, Value};
use seaweed_types::{Duration, Time};

/// Each endsystem holds exactly one row matching `flag = 1` whose `v`
/// column is `node + 1`, plus noise rows with `flag = 0`. Exactly-once
/// counting is then directly observable: `rows == |H|` and
/// `SUM(v) == Σ_{i∈H}(i+1)`.
fn tables(n: usize) -> LiveTables {
    let (mut tables, _) = flag_fixture(0..n as u32, 1);
    for node in 0..n {
        for j in 0..5 {
            tables
                .table_mut(node)
                .insert(vec![Value::Int(0), Value::Int(j)])
                .unwrap();
        }
        tables.refresh_summary(node);
    }
    tables
}

fn world(n: usize, seed: u64) -> (SeaweedEngine, Seaweed<LiveTables>, Schema) {
    let provider = tables(n);
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

/// Brings all nodes up staggered and settles joins and first metadata
/// pushes.
fn settle(eng: &mut SeaweedEngine, sw: &mut Seaweed<LiveTables>) {
    boot_staggered(eng, Duration::from_millis(777));
    sw.run_until(eng, Time::ZERO + Duration::from_mins(10));
}

const QUERY_COUNT: &str = "SELECT COUNT(*) FROM T WHERE flag = 1";
const QUERY_SUM: &str = "SELECT SUM(v) FROM T WHERE flag = 1";

#[test]
fn query_over_fully_available_network() {
    let n = 30;
    let clones_before = payload_fallback_clones();
    let (mut eng, mut sw, schema) = world(n, 1);
    settle(&mut eng, &mut sw);
    assert_eq!(sw.overlay.num_joined(), n);

    let h = sw
        .inject_query(
            &mut eng,
            NodeIdx(0),
            QUERY_SUM,
            Duration::from_hours(4),
            &schema,
        )
        .unwrap();
    let hz = eng.now() + Duration::from_mins(5);
    sw.run_until(&mut eng, hz);

    let q = sw.query(h);
    // Predictor: everything available now, total ~ n rows.
    let p = q.predictor.as_ref().expect("predictor must arrive");
    assert!(q.predictor_at.is_some());
    assert!(
        (p.total_rows() - n as f64).abs() < n as f64 * 0.1,
        "predictor total {} vs {n}",
        p.total_rows()
    );
    assert!(p.completeness_at(Duration::ZERO) > 0.95);
    // Exact result, every endsystem counted exactly once.
    assert_eq!(q.rows(), n as u64);
    let expected_sum: f64 = (1..=n as i64).map(|v| v as f64).sum();
    assert_eq!(q.latest.unwrap().finish(), Some(expected_sum));
    // Joins, a metadata push from every endsystem to its replica set and
    // a query, with no fault plan to duplicate anything: no message was
    // sent shared only to be cloned on delivery.
    assert!(sw.stats.meta_pushes >= (n * 8) as u64);
    assert_eq!(payload_fallback_clones(), clones_before);
}

/// Standing holders — of a vertex, of an endsystem's metadata — are
/// charged the pushes they already hold, not sent them: against the run
/// of this world at the commit before either push stopped being an event
/// (the constants), every byte transmitted, per class, every replication
/// counted and every row is where it was, and the messages sent are fewer
/// by exactly the pushes accounted.
#[test]
fn standing_holders_are_charged_not_sent_their_replicas() {
    let n = 30;
    let (mut eng, mut sw, schema) = world(n, 1);
    settle(&mut eng, &mut sw);
    let h = sw
        .inject_query(
            &mut eng,
            NodeIdx(0),
            QUERY_SUM,
            Duration::from_hours(4),
            &schema,
        )
        .unwrap();
    let hz = eng.now() + Duration::from_mins(5);
    sw.run_until(&mut eng, hz);

    let m = eng.metrics();
    assert_eq!(m.counter("sim.tx_bytes.overlay"), 101_246);
    assert_eq!(m.counter("sim.tx_bytes.maintenance"), 638_112);
    assert_eq!(m.counter("sim.tx_bytes.query"), 120_922);
    assert_eq!(sw.stats.vertex_replications, 98);
    assert_eq!(sw.query(h).rows(), 30);
    assert!(sw.stats.replicas_accounted > 0);
    assert!(sw.stats.meta_pushes_accounted > 0);
    assert_eq!(
        eng.messages_sent + sw.stats.replicas_accounted + sw.stats.meta_pushes_accounted,
        2_915
    );
}

#[test]
fn predictor_reflects_unavailable_endsystems() {
    let n = 30;
    let down = 8;
    let (mut eng, mut sw, schema) = world(n, 2);
    settle(&mut eng, &mut sw);

    // Give every endsystem some up/down history so availability models
    // have observations, then take `down` nodes offline.
    let t0 = eng.now();
    for i in 0..down {
        eng.schedule_down(t0 + Duration::from_mins(i as u64 + 1), NodeIdx(i as u32));
    }
    // Let failure detection and metadata repair finish.
    sw.run_until(&mut eng, t0 + Duration::from_mins(30));

    let h = sw
        .inject_query(
            &mut eng,
            NodeIdx(20),
            QUERY_COUNT,
            Duration::from_hours(8),
            &schema,
        )
        .unwrap();
    let hz = eng.now() + Duration::from_mins(5);
    sw.run_until(&mut eng, hz);

    let q = sw.query(h);
    let p = q.predictor.as_ref().expect("predictor");
    // Total should still see ~all n endsystems (metadata answers for the
    // down ones); immediate only the live ones.
    assert!(
        (p.total_rows() - n as f64).abs() <= 1.5,
        "total {} vs {n}",
        p.total_rows()
    );
    let immediate = p.immediate_rows();
    assert!(
        (immediate - (n - down) as f64).abs() <= 1.5,
        "immediate {immediate} vs {}",
        n - down
    );
    // The result so far covers exactly the live endsystems.
    assert_eq!(q.rows(), (n - down) as u64);

    // Bring the down endsystems back: incremental results must converge
    // to full completeness, each endsystem exactly once.
    let t1 = eng.now();
    for i in 0..down {
        eng.schedule_up(
            t1 + Duration::from_mins(2 * i as u64 + 1),
            NodeIdx(i as u32),
        );
    }
    sw.run_until(&mut eng, t1 + Duration::from_hours(1));
    let q = sw.query(h);
    assert_eq!(
        q.rows(),
        n as u64,
        "incremental results must reach full completeness"
    );
}

#[test]
fn rejoining_endsystem_is_counted_exactly_once() {
    let n = 20;
    let (mut eng, mut sw, schema) = world(n, 3);
    settle(&mut eng, &mut sw);

    let h = sw
        .inject_query(
            &mut eng,
            NodeIdx(5),
            QUERY_SUM,
            Duration::from_hours(8),
            &schema,
        )
        .unwrap();
    let hz = eng.now() + Duration::from_mins(2);
    sw.run_until(&mut eng, hz);
    assert_eq!(sw.query(h).rows(), n as u64);

    // Node 7 bounces twice; the total must not change.
    let t0 = eng.now();
    eng.schedule_down(t0 + Duration::from_mins(1), NodeIdx(7));
    eng.schedule_up(t0 + Duration::from_mins(20), NodeIdx(7));
    eng.schedule_down(t0 + Duration::from_mins(40), NodeIdx(7));
    eng.schedule_up(t0 + Duration::from_mins(60), NodeIdx(7));
    sw.run_until(&mut eng, t0 + Duration::from_hours(2));

    let q = sw.query(h);
    assert_eq!(q.rows(), n as u64);
    let expected_sum: f64 = (1..=n as i64).map(|v| v as f64).sum();
    assert_eq!(q.latest.unwrap().finish(), Some(expected_sum));
}

#[test]
fn exactly_once_under_churn_during_query() {
    let n = 40;
    let (mut eng, mut sw, schema) = world(n, 4);
    settle(&mut eng, &mut sw);

    // Churn: a third of the nodes bounce on staggered schedules while the
    // query runs.
    let t0 = eng.now();
    for i in 0..n / 3 {
        let node = NodeIdx((i * 3) as u32);
        let off = t0 + Duration::from_mins(2 + i as u64);
        eng.schedule_down(off, node);
        eng.schedule_up(off + Duration::from_mins(15), node);
    }
    let h = sw
        .inject_query(
            &mut eng,
            NodeIdx(1),
            QUERY_SUM,
            Duration::from_hours(8),
            &schema,
        )
        .unwrap();
    sw.run_until(&mut eng, t0 + Duration::from_hours(3));

    let q = sw.query(h);
    // Every endsystem was available long enough at some point, so H must
    // equal the full population — counted exactly once each.
    assert_eq!(q.rows(), n as u64, "lost or duplicated contributions");
    let expected_sum: f64 = (1..=n as i64).map(|v| v as f64).sum();
    assert_eq!(q.latest.unwrap().finish(), Some(expected_sum));
    // Progress at the origin is monotone in rows.
    for w in q.progress.windows(2) {
        assert!(w[1].1 >= w[0].1, "origin saw row count regress");
    }
}

#[test]
fn predictor_latency_is_seconds_scale() {
    let n = 50;
    let (mut eng, mut sw, schema) = world(n, 5);
    settle(&mut eng, &mut sw);
    let injected = eng.now();
    let h = sw
        .inject_query(
            &mut eng,
            NodeIdx(9),
            QUERY_COUNT,
            Duration::from_hours(1),
            &schema,
        )
        .unwrap();
    sw.run_until(&mut eng, injected + Duration::from_mins(5));
    let q = sw.query(h);
    let at = q.predictor_at.expect("predictor arrived");
    let latency = at.since(injected);
    // Paper: 3.1 s at 2,000 endsystems. At 50 endsystems with 5 ms links
    // it must be well under a minute, and strictly positive.
    assert!(latency > Duration::ZERO);
    assert!(latency < Duration::from_secs(60), "latency {latency}");
}

#[test]
fn metadata_is_replicated_k_ways() {
    let n = 25;
    let (mut eng, mut sw, schema) = world(n, 6);
    let _ = &schema;
    settle(&mut eng, &mut sw);
    let k = sw.cfg.k_metadata;
    for node in 0..n as u32 {
        let holders: Vec<NodeIdx> = (0..n as u32)
            .map(NodeIdx)
            .filter(|&h| h != NodeIdx(node) && sw.holds_metadata(h, NodeIdx(node)))
            .collect();
        assert!(
            holders.len() >= k.min(n - 1),
            "node {node} metadata held by only {} nodes",
            holders.len()
        );
    }
    assert!(sw.stats.meta_pushes > 0);
}

#[test]
fn queries_expire_and_stop_consuming_state() {
    let n = 15;
    let (mut eng, mut sw, schema) = world(n, 7);
    settle(&mut eng, &mut sw);
    let h = sw
        .inject_query(
            &mut eng,
            NodeIdx(2),
            QUERY_COUNT,
            Duration::from_mins(10),
            &schema,
        )
        .unwrap();
    let hz = eng.now() + Duration::from_mins(30);
    sw.run_until(&mut eng, hz);
    let q = sw.query(h);
    assert!(!q.active, "query should have expired");
    assert_eq!(q.rows(), n as u64, "result completed before expiry");
    // A node bouncing after expiry must not resubmit.
    let rows_before = sw.query(h).rows();
    let t0 = eng.now();
    eng.schedule_down(t0 + Duration::from_mins(1), NodeIdx(3));
    eng.schedule_up(t0 + Duration::from_mins(5), NodeIdx(3));
    sw.run_until(&mut eng, t0 + Duration::from_mins(30));
    assert_eq!(sw.query(h).rows(), rows_before);
}

#[test]
fn deterministic_across_reruns() {
    let run = || {
        let n = 20;
        let (mut eng, mut sw, schema) = world(n, 42);
        settle(&mut eng, &mut sw);
        let h = sw
            .inject_query(
                &mut eng,
                NodeIdx(0),
                QUERY_SUM,
                Duration::from_hours(1),
                &schema,
            )
            .unwrap();
        let hz = eng.now() + Duration::from_mins(10);
        sw.run_until(&mut eng, hz);
        let q = sw.query(h);
        (
            q.rows(),
            q.predictor_at.map(|t| t.as_micros()),
            sw.stats.disseminate_msgs,
            sw.stats.result_submissions,
            eng.messages_sent,
        )
    };
    assert_eq!(run(), run());
}

/// Under churn only the engine cancels a timer, sweeping a node's timers
/// as it goes down: every `timer_cancel` record shares its instant and
/// node with a `node_down` or `node_crash` record. The protocol layers
/// arm each timer fire-and-forget and decide at the fire instant — a
/// join retry after the join, a detection timer after the watched node
/// came back, a task's timers after it reported.
#[test]
fn under_churn_only_a_node_going_down_cancels_a_timer() {
    let n = 40;
    let trace = GnutellaConfig::small(n, 6).generate(11);
    let provider = tables(n);
    let schema = provider.schema().clone();
    let (mut eng, mut sw) = build_world(
        Box::new(UniformTopology::new(n, Duration::from_millis(5))),
        11,
        SimConfig {
            trace: Some(TraceConfig { capacity: 1 << 20 }),
            ..SimConfig::default()
        },
        OverlayConfig::default(),
        SeaweedConfig::default(),
        provider,
    );
    trace.replay_into(&mut eng);
    let t_query = Time::ZERO + Duration::from_hours(2);
    sw.run_until(&mut eng, t_query);
    let origin = (0..n)
        .find(|&i| eng.is_up(NodeIdx(i as u32)))
        .expect("someone is up");
    sw.inject_query(
        &mut eng,
        NodeIdx(origin as u32),
        QUERY_SUM,
        Duration::from_hours(4),
        &schema,
    )
    .unwrap();
    sw.run_until(&mut eng, trace.horizon());
    assert!(sw.overlay.stats.joins > n as u64, "the trace did not churn");

    let tracer = eng.tracer().expect("the world traces");
    assert_eq!(tracer.dropped_records(), 0);
    let mut downs = Vec::new();
    let mut cancels = 0;
    for r in tracer.records() {
        match r.ev {
            TraceEvent::NodeDown { node } | TraceEvent::NodeCrash { node } => {
                downs.push((r.at, node))
            }
            TraceEvent::TimerCancel { node, .. } => {
                // The sweep is traced right after the transition.
                assert_eq!(
                    downs.last(),
                    Some(&(r.at, node)),
                    "a timer cancelled without its node going down"
                );
                cancels += 1;
            }
            _ => {}
        }
    }
    assert!(cancels > 0, "no node went down with a timer armed");
}
