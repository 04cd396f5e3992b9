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
    boot_staggered, build_world, chaos_sim, chaos_world, flag_fixture, run_chaos, ChaosRun,
    HedgeConfig, SeaweedConfig, CHAOS_QUERY,
};
use seaweed_overlay::OverlayConfig;
use seaweed_sim::{NodeIdx, SimConfig, UniformTopology};
use seaweed_types::{Duration, Time};

const N: usize = 36;
const ROUTERS: usize = 24;

/// The chaos scenario with hedging on; the oracle (exactly-once,
/// monotone progress, orphan-freedom, timer hygiene, hedge accounting)
/// must hold at every checkpoint.
fn run_hedged(seed: u64) -> ChaosRun {
    let hedged = SeaweedConfig {
        hedge: Some(HedgeConfig::default()),
        ..Default::default()
    };
    let run = run_chaos(chaos_world(N, ROUTERS, seed, chaos_sim, hedged));
    run.assert_clean();
    run
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
            a.stats.hedge_wins + a.stats.hedge_losses <= a.stats.hedges_sent,
            "hedge ledger inconsistent: {} + {} > {}",
            a.stats.hedge_wins, a.stats.hedge_losses, a.stats.hedges_sent
        );
        if a.stats.hedges_sent == 0 {
            prop_assert_eq!(a.stats.hedge_wasted_bytes, 0);
        }
        let b = run_hedged(seed);
        prop_assert_eq!(a.fingerprint(), b.fingerprint(), "same-seed replay diverged");
        prop_assert_eq!(a.stats.hedges_sent, b.stats.hedges_sent);
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
        run.stats.hedges_sent > 0,
        "seed 7 chaos plan provoked no hedges — the machinery never ran"
    );
}

/// On a quiet ring — every endsystem up, no loss, no faults — with
/// hedging on, nothing is cancelled from boot to the complete answer:
/// each joiner's join retry comes due after its join completed, every
/// delegating task reports before its reissue and hedge timers come due,
/// the origin's watchdog loses its race to the predictor, and all of
/// those timers fire as no-ops instead. Only a node going down cancels a
/// timer, and none does.
#[test]
fn a_quiet_hedged_ring_cancels_no_timer() {
    const N: usize = 40;
    let (tables, schema) = flag_fixture(0..N as u32, 1);
    let (mut eng, mut sw) = build_world(
        Box::new(UniformTopology::new(N, Duration::from_millis(5))),
        5,
        SimConfig::default(),
        OverlayConfig::default(),
        SeaweedConfig {
            hedge: Some(HedgeConfig::default()),
            ..SeaweedConfig::default()
        },
        tables,
    );
    boot_staggered(&mut eng, Duration::from_millis(300));
    sw.run_until(&mut eng, Time::from_secs(600));
    assert_eq!(sw.overlay.num_joined(), N);
    let h = sw
        .inject_query(
            &mut eng,
            NodeIdx(0),
            CHAOS_QUERY,
            Duration::from_hours(1),
            &schema,
        )
        .expect("the query parses and binds");
    sw.run_until(&mut eng, Time::from_secs(660));
    let q = sw.query(h);
    assert_eq!(q.rows(), N as u64);
    assert!(q.predictor.is_some());
    assert!(
        sw.stats.disseminate_msgs > N as u64 / 2,
        "the broadcast delegated"
    );
    assert_eq!(eng.timers_cancelled, 0);
}
