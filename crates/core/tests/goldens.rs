//! Golden fingerprints of the full chaos run.
//!
//! Each row was recorded from the baseline implementations this
//! repository used to carry beside the live ones — the binary-heap
//! scheduler, the `BTreeMap` hot-state layout, id-order replica
//! selection — and asserted equal on the live path before the baselines
//! were deleted (DESIGN.md §3: a baseline lives until the next
//! re-anchor, then becomes a golden). A fingerprint is `(log_hash,
//! log_len, rows, report_hash)`: an FNV-1a hash over every delivered
//! event (kind, time, endpoints, timer tag) in order, the event count,
//! the rows at the origin, and a hash of the engine's final
//! `BandwidthReport` rendering.
//!
//! With `hedge: None` the run is the pre-hedging protocol bit for bit;
//! seeds 7, 11 and 42 were captured on the commit before the hedging
//! hooks existed and have never been regenerated.

use seaweed_core::{
    boot_staggered, build_world, flag_fixture, ChaosOracle, HedgeConfig, LiveTables, Seaweed,
    SeaweedConfig, SeaweedEngine,
};
use seaweed_overlay::OverlayConfig;
use seaweed_sim::{fnv1a, CorpNetTopology, EventLog, FaultPlan, NodeIdx, SimConfig};
use seaweed_store::Schema;
use seaweed_types::{Duration, Time};

const N: usize = 36;
const ROUTERS: usize = 24;
/// Query injection time; all fault windows are anchored after it.
const T0: u64 = 600_000_000;

type Fingerprint = (u64, u64, u64, u64);

/// `hedge: None`, by seed.
const GOLDENS: [(u64, Fingerprint); 8] = [
    (7, (0x9ebd_982a_ec0c_f660, 6096, 36, 0xbaea_e313_3c4c_8013)),
    (11, (0x7fda_8683_716a_b886, 5776, 36, 0xc341_d795_713c_1959)),
    (42, (0x125f_a26f_3e0b_1728, 5822, 36, 0xff09_8794_8e10_b2de)),
    (1, (0xe761_a071_0759_f7df, 5749, 36, 0xc2c8_42ad_6dad_30a4)),
    (3, (0xa00c_0c63_98b6_2ed7, 5695, 36, 0x7b4f_8d3a_45fc_cbd8)),
    (23, (0x4d17_3507_44b2_03d1, 5771, 36, 0xe3ac_8be5_c6ab_eed4)),
    (99, (0xcda8_0a3a_34f1_5464, 5785, 36, 0xec6e_2d98_9dda_ce61)),
    (
        1234,
        (0x6105_0da8_ea74_eddc, 5706, 36, 0xd0c2_782e_d158_d80d),
    ),
];

/// `hedge: Some(HedgeConfig::default())`, seed 7 — a seed on which the
/// chaos plan provokes hedges (`hedging.rs` asserts that it does).
const HEDGED_GOLDEN: Fingerprint = (0x05fb_33dc_2a02_bcca, 6072, 36, 0xf182_fa88_72a5_d023);

/// The 36-endsystem world of `chaos.rs`: one matching row per endsystem,
/// 1% base loss, the shared chaos plan, staggered boot.
fn world(seed: u64, hedge: Option<HedgeConfig>) -> (SeaweedEngine, Seaweed<LiveTables>, Schema) {
    let (tables, schema) = flag_fixture(0..N as u32, 1);
    let topo = CorpNetTopology::with_params(N, ROUTERS, Duration::MILLISECOND, seed);
    let plan = FaultPlan::chaos(&topo, &[]);
    let (mut eng, sw) = build_world(
        Box::new(topo),
        seed,
        SimConfig {
            loss_rate: 0.01,
            faults: Some(plan),
            ..SimConfig::default()
        },
        OverlayConfig::default(),
        SeaweedConfig {
            hedge,
            ..Default::default()
        },
        tables,
    );
    boot_staggered(&mut eng, Duration::from_millis(300));
    (eng, sw, schema)
}

/// Runs the chaos scenario — one query injected at `T0`, the oracle
/// checked at checkpoints straddling every fault window — and returns
/// its fingerprint.
fn run(seed: u64, hedge: Option<HedgeConfig>) -> Fingerprint {
    let hedging = hedge.is_some();
    let (mut eng, mut sw, schema) = world(seed, hedge);
    let mut log = EventLog::new();
    sw.run_until_logged(&mut eng, Time(T0), &mut log);
    assert_eq!(sw.overlay.num_joined(), N, "all join before the faults");
    sw.inject_query(
        &mut eng,
        NodeIdx(0),
        "SELECT SUM(v) FROM T WHERE flag = 1",
        Duration::from_hours(4),
        &schema,
    )
    .unwrap();
    let oracle = ChaosOracle::new(N as u64);
    for t in [650, 720, 800, 1000, 1500] {
        sw.run_until_logged(&mut eng, Time::from_secs(t), &mut log);
        oracle.assert_clean(&sw, &eng);
    }
    if !hedging {
        // The tail-tolerance machinery must be fully inert.
        assert_eq!(sw.stats.hedges_sent, 0);
        assert_eq!(sw.stats.hedge_wasted_bytes, 0);
    }
    let rows = sw.query(0).rows();
    let report = format!("{:?}", eng.finish());
    (log.hash(), log.events(), rows, fnv1a(report.as_bytes()))
}

#[test]
fn chaos_runs_match_goldens() {
    for (seed, golden) in GOLDENS {
        assert_eq!(run(seed, None), golden, "seed {seed}");
    }
}

#[test]
fn hedged_chaos_matches_golden() {
    assert_eq!(run(7, Some(HedgeConfig::default())), HEDGED_GOLDEN);
}

/// Slab/block reuse across query lifecycles: a first query's expiry
/// returns its vertex slots and per-query blocks to the free pools; a
/// second query then reuses them. The second query must converge to full
/// completeness and the exactly-once oracle must stay clean throughout —
/// any state leaking out of a recycled slot (stale children, holders,
/// epochs, leaf targets) would trip it.
#[test]
fn freed_query_slots_do_not_leak_into_reused_handles() {
    let (mut eng, mut sw, schema) = world(7, None);
    sw.run_until(&mut eng, Time(T0));

    // First query: short lifetime so it expires mid-run.
    let h0 = sw
        .inject_query(
            &mut eng,
            NodeIdx(0),
            "SELECT SUM(v) FROM T WHERE flag = 1",
            Duration::from_secs(120),
            &schema,
        )
        .unwrap();
    sw.run_until(&mut eng, Time::from_secs(900));
    assert!(!sw.query(h0).active, "first query must have expired");

    // Second query reuses the recycled arena storage.
    let h1 = sw
        .inject_query(
            &mut eng,
            NodeIdx(0),
            "SELECT COUNT(*) FROM T WHERE flag = 1",
            Duration::from_hours(2),
            &schema,
        )
        .unwrap();
    assert_ne!(h0, h1, "handles are never reused");
    sw.run_until(&mut eng, Time::from_secs(1800));

    let oracle = ChaosOracle::new(N as u64);
    oracle.assert_clean(&sw, &eng);
    assert_eq!(sw.query(h1).rows(), N as u64, "second query converges");
}
