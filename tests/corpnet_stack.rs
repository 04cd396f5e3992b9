//! Full stack over the CorpNet-like router topology (rather than the
//! uniform test fabric): latencies now span sub-millisecond LAN to
//! intercontinental WAN, which exercises timeout/reissue margins and the
//! proximity structure of routing.

use seaweed_core::{boot_staggered, build_world, flag_fixture, SeaweedConfig};
use seaweed_overlay::OverlayConfig;
use seaweed_sim::{CorpNetTopology, NodeIdx, SimConfig};
use seaweed_types::{Duration, Time};

#[test]
fn query_over_corpnet_topology() {
    let n = 120;
    let seed = 23;
    let (tables, schema) = flag_fixture(0..n as u32, 1);
    let (mut eng, mut sw) = build_world(
        Box::new(CorpNetTopology::new(n, seed)),
        seed,
        SimConfig::default(),
        OverlayConfig::default(),
        SeaweedConfig::default(),
        tables,
    );
    boot_staggered(&mut eng, Duration::from_millis(300));
    sw.run_until(&mut eng, Time::ZERO + Duration::from_mins(10));
    assert_eq!(sw.overlay.num_joined(), n);

    // Take a fifth down, query, and verify the usual guarantees hold with
    // realistic WAN latencies.
    let t0 = eng.now();
    for i in 0..n / 5 {
        eng.schedule_down(t0 + Duration::from_secs(i as u64), NodeIdx((i * 5) as u32));
    }
    sw.run_until(&mut eng, t0 + Duration::from_mins(5));

    let origin = NodeIdx((n - 1) as u32);
    let injected = eng.now();
    let h = sw
        .inject_query(
            &mut eng,
            origin,
            "SELECT SUM(v) FROM T WHERE flag = 1",
            Duration::from_hours(4),
            &schema,
        )
        .unwrap();
    let hz = eng.now() + Duration::from_mins(3);
    sw.run_until(&mut eng, hz);

    let q = sw.query(h);
    let p = q.predictor.as_ref().expect("predictor over WAN");
    // WAN latency: predictor still arrives within seconds.
    let latency = q.predictor_at.unwrap().since(injected);
    assert!(latency < Duration::from_secs(30), "latency {latency}");
    assert!(
        latency > Duration::from_millis(2),
        "suspiciously instant over a WAN"
    );
    assert!((p.total_rows() - n as f64).abs() <= 2.0);
    assert_eq!(q.rows(), (n - n / 5) as u64);

    // Bring the missing endsystems back; exactly-once convergence.
    let t1 = eng.now();
    for i in 0..n / 5 {
        eng.schedule_up(
            t1 + Duration::from_mins(i as u64 + 1),
            NodeIdx((i * 5) as u32),
        );
    }
    sw.run_until(&mut eng, t1 + Duration::from_hours(1));
    let q = sw.query(h);
    assert_eq!(q.rows(), n as u64);
    let expected: f64 = (1..=n as i64).map(|v| v as f64).sum();
    assert_eq!(q.latest.unwrap().finish(), Some(expected));
}
