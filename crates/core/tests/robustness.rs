//! Robustness under adverse network conditions: MSPastry "provides
//! reliable message delivery under adverse network conditions: even with
//! network message loss rates as high as 5%" (§3.1). The stacked
//! retransmission machinery (dissemination reissue, result retry,
//! join retry) must keep Seaweed's exactly-once guarantees intact.

use seaweed_core::{
    boot_staggered, build_world, flag_fixture, LiveTables, Seaweed, SeaweedConfig, SeaweedEngine,
};
use seaweed_overlay::OverlayConfig;
use seaweed_sim::{NodeIdx, SimConfig, UniformTopology};
use seaweed_store::Schema;
use seaweed_types::{Duration, Time};

fn world(n: usize, seed: u64, loss: f64) -> (SeaweedEngine, Seaweed<LiveTables>, Schema) {
    let (tables, schema) = flag_fixture(0..n as u32, 1);
    let (eng, sw) = build_world(
        Box::new(UniformTopology::new(n, Duration::from_millis(5))),
        seed,
        SimConfig {
            loss_rate: loss,
            ..SimConfig::default()
        },
        OverlayConfig::default(),
        SeaweedConfig::default(),
        tables,
    );
    (eng, sw, schema)
}

#[test]
fn exactly_once_with_five_percent_message_loss() {
    let n = 40;
    let (mut eng, mut sw, schema) = world(n, 5, 0.05);
    boot_staggered(&mut eng, Duration::from_millis(700));
    sw.run_until(&mut eng, Time::ZERO + Duration::from_mins(15));
    assert_eq!(
        sw.overlay.num_joined(),
        n,
        "joins must survive loss (retry)"
    );

    let h = sw
        .inject_query(
            &mut eng,
            NodeIdx(0),
            "SELECT SUM(v) FROM T WHERE flag = 1",
            Duration::from_hours(4),
            &schema,
        )
        .unwrap();
    // Give retransmissions time to fill the gaps.
    let hz = eng.now() + Duration::from_mins(20);
    sw.run_until(&mut eng, hz);

    let q = sw.query(h);
    assert_eq!(
        q.rows(),
        n as u64,
        "every endsystem exactly once despite loss"
    );
    let expected: f64 = (1..=n as i64).map(|v| v as f64).sum();
    assert_eq!(q.latest.unwrap().finish(), Some(expected));
    // The predictor must also have survived (reissues cover lost ranges).
    let p = q.predictor.as_ref().expect("predictor despite loss");
    assert!(
        p.total_rows() > 0.9 * n as f64,
        "predictor total {}",
        p.total_rows()
    );
    // Loss must actually have occurred for the test to mean anything.
    assert!(eng.dropped_loss > 0, "no messages were lost?");
}

#[test]
fn cancel_stops_incremental_results() {
    let n = 25;
    let (mut eng, mut sw, schema) = world(n, 6, 0.0);
    boot_staggered(&mut eng, Duration::from_millis(400));
    // Keep five endsystems down until later.
    sw.run_until(&mut eng, Time::ZERO + Duration::from_mins(10));
    let t0 = eng.now();
    for i in 0..5 {
        eng.schedule_down(t0 + Duration::from_secs(i as u64 + 1), NodeIdx(i));
    }
    sw.run_until(&mut eng, t0 + Duration::from_mins(5));

    let h = sw
        .inject_query(
            &mut eng,
            NodeIdx(10),
            "SELECT COUNT(*) FROM T WHERE flag = 1",
            Duration::from_hours(8),
            &schema,
        )
        .unwrap();
    let hz = eng.now() + Duration::from_mins(2);
    sw.run_until(&mut eng, hz);
    let before = sw.query(h).rows();
    assert_eq!(before, (n - 5) as u64);

    // The user accepts the partial result and cancels (§2.1's scenario).
    // The notice is query traffic, one to every live endsystem, none of
    // it booked as overlay maintenance.
    let tx = |eng: &SeaweedEngine| {
        let m = eng.metrics();
        (
            m.counter("sim.tx_bytes.query"),
            m.counter("sim.tx_bytes.overlay"),
        )
    };
    let (query_before, overlay_before) = tx(&eng);
    sw.cancel_query(&mut eng, h);
    assert!(!sw.query(h).active);
    let notice = u64::from(seaweed_core::wire::SEAWEED_HEADER + 16);
    assert_eq!(
        tx(&eng),
        (query_before + notice * (n - 5) as u64, overlay_before)
    );

    // The stragglers return — but the canceled query must not grow.
    let t1 = eng.now();
    for i in 0..5 {
        eng.schedule_up(t1 + Duration::from_mins(i as u64 + 1), NodeIdx(i));
    }
    sw.run_until(&mut eng, t1 + Duration::from_mins(30));
    assert_eq!(
        sw.query(h).rows(),
        before,
        "canceled query must stop accumulating"
    );
}
