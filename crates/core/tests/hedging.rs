//! Chaos testing with hedged dissemination ON.
//!
//! `goldens.rs` pins hedging-off to the pre-hedging byte stream; this
//! file turns the tail-tolerance machinery on (hedged requests, with
//! reissues diverted to live cover candidates) under the full chaos plan
//! and checks the properties that must survive it: every oracle invariant
//! (including exactly-once and the new timer-hygiene/hedge-accounting
//! checks), deterministic replay, and sane hedge bookkeeping.

use proptest::prelude::*;
use seaweed_core::{
    boot_staggered, build_world, flag_fixture, ChaosOracle, HedgeConfig, SeaweedConfig,
};
use seaweed_overlay::OverlayConfig;
use seaweed_sim::{CorpNetTopology, EventLog, FaultPlan, NodeIdx, SimConfig};
use seaweed_types::{Duration, Time};

const N: usize = 36;
const ROUTERS: usize = 24;
const T0: u64 = 600_000_000;

struct RunResult {
    log_hash: u64,
    log_len: u64,
    rows: u64,
    hedges_sent: u64,
    hedge_wins: u64,
    hedge_losses: u64,
    hedge_wasted_bytes: u64,
}

fn run_hedged(seed: u64) -> RunResult {
    let (tables, schema) = flag_fixture(0..N as u32, 1);
    let topo = CorpNetTopology::with_params(N, ROUTERS, Duration::MILLISECOND, seed);
    let plan = FaultPlan::chaos(&topo, &[]);
    let (mut eng, mut sw) = build_world(
        Box::new(topo),
        seed,
        SimConfig {
            loss_rate: 0.01,
            faults: Some(plan),
            ..SimConfig::default()
        },
        OverlayConfig::default(),
        SeaweedConfig {
            hedge: Some(HedgeConfig::default()),
            ..Default::default()
        },
        tables,
    );
    boot_staggered(&mut eng, Duration::from_millis(300));
    let mut log = EventLog::new();
    sw.run_until_logged(&mut eng, Time(T0), &mut log);
    assert_eq!(sw.overlay.num_joined(), N);
    sw.inject_query(
        &mut eng,
        NodeIdx(0),
        "SELECT SUM(v) FROM T WHERE flag = 1",
        Duration::from_hours(4),
        &schema,
    )
    .unwrap();
    // Checkpoints straddle the outage, the heal and the long tail; the
    // oracle (exactly-once, monotone progress, orphan-freedom, timer
    // hygiene, hedge accounting) must hold at every one.
    let oracle = ChaosOracle::new(N as u64);
    for t in [650, 720, 800, 1000, 1500] {
        sw.run_until_logged(&mut eng, Time::from_secs(t), &mut log);
        oracle.assert_clean(&sw, &eng);
    }
    RunResult {
        log_hash: log.hash(),
        log_len: log.events(),
        rows: sw.query(0).rows(),
        hedges_sent: sw.stats.hedges_sent,
        hedge_wins: sw.stats.hedge_wins,
        hedge_losses: sw.stats.hedge_losses,
        hedge_wasted_bytes: sw.stats.hedge_wasted_bytes,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// 32 arbitrary seeds with hedging on: oracle-clean at every
    /// checkpoint (asserted inside `run_hedged`), exactly-once holds
    /// (rows never exceed the population — every hedge duplicate must
    /// be deduped somewhere), the hedge ledger is consistent, and the
    /// run replays bit-identically under the same seed.
    #[test]
    fn hedged_chaos_is_oracle_clean_and_deterministic(seed in 0u64..10_000) {
        let a = run_hedged(seed);
        prop_assert!(a.rows <= N as u64, "exactly-once violated: {} rows", a.rows);
        prop_assert!(
            a.rows * 2 >= N as u64,
            "hedged run lost most of the population: {} rows",
            a.rows
        );
        prop_assert!(
            a.hedge_wins + a.hedge_losses <= a.hedges_sent,
            "hedge ledger inconsistent: {} + {} > {}",
            a.hedge_wins, a.hedge_losses, a.hedges_sent
        );
        if a.hedges_sent == 0 {
            prop_assert_eq!(a.hedge_wasted_bytes, 0);
        }
        let b = run_hedged(seed);
        prop_assert_eq!(a.log_hash, b.log_hash, "same-seed replay diverged");
        prop_assert_eq!(a.log_len, b.log_len);
        prop_assert_eq!(a.rows, b.rows);
        prop_assert_eq!(a.hedges_sent, b.hedges_sent);
    }
}

/// A pinned seed where the chaos plan actually provokes hedges, so the
/// machinery is known-exercised (the proptest above would also pass on
/// seeds where every reply beats the hedge delay). `goldens.rs` pins this
/// seed's full fingerprint.
#[test]
fn hedges_fire_under_chaos() {
    let run = run_hedged(7);
    assert!(
        run.hedges_sent > 0,
        "seed 7 chaos plan provoked no hedges — the machinery never ran"
    );
}
