//! Golden fingerprints of the full chaos run.
//!
//! A fingerprint is `(log_hash, log_len, rows, report_hash)`: an FNV-1a
//! hash over every delivered event (kind, time, endpoints, timer tag) in
//! order, the event count, the rows at the origin, and a hash of the
//! engine's final `BandwidthReport` rendering.
//!
//! The rows pin the live path to what it delivered when they were
//! recorded: first from the baseline implementations this repository
//! used to carry beside the live ones — the binary-heap scheduler, the
//! `BTreeMap` hot-state layout, id-order replica selection — before the
//! baselines were deleted (DESIGN.md §3: a baseline lives until the next
//! re-anchor, then becomes a golden), then re-recorded once, at PR 16,
//! the one change meant to alter the event stream: leafset pulls between
//! synced pairs stopped being events (DESIGN.md "What is simulated, what
//! is accounted"), so a run delivers fewer events and every later loss
//! and jitter draw of the engine moves. EXPERIMENTS.md "PR 16" lists old
//! and new `log_len` per row and why seed 3 now ends a row short.
//!
//! With `hedge: None` the tail-tolerance machinery must be fully inert
//! (asserted below).

use seaweed_core::{
    chaos_sim, chaos_world, run_chaos, ChaosOracle, HedgeConfig, LiveTables, Seaweed,
    SeaweedConfig, SeaweedEngine, CHAOS_QUERY, CHAOS_T0,
};
use seaweed_sim::NodeIdx;
use seaweed_store::Schema;
use seaweed_types::{Duration, Time};

const N: usize = 36;
const ROUTERS: usize = 24;

type Fingerprint = (u64, u64, u64, u64);

/// `hedge: None`, by seed.
const GOLDENS: [(u64, Fingerprint); 8] = [
    (7, (0x2b60_2456_5972_c67a, 5836, 36, 0xb8d1_6c92_5711_ce54)),
    (11, (0xa0b5_082f_6a4e_6578, 5482, 36, 0x71d9_0f65_3cbb_c736)),
    (42, (0xfe96_e998_bb15_9ab0, 5510, 36, 0x9a96_f90c_37b4_210e)),
    (1, (0x6642_b542_43fc_c89a, 5663, 36, 0xb4a8_4a34_60a5_01b2)),
    (3, (0x7aac_84bd_6be4_ac88, 5479, 35, 0x58ab_bad0_3d93_24a9)),
    (23, (0x3e50_ef6e_d291_b0d1, 5609, 36, 0x4192_640e_77e1_12de)),
    (99, (0x6de0_db4d_5c0f_96aa, 5453, 36, 0x0b94_707e_726e_2e67)),
    (
        1234,
        (0x7fb7_0234_3e56_4b41, 5528, 36, 0x52b2_7c0e_3493_351a),
    ),
];

/// `hedge: Some(HedgeConfig::default())`, seed 7 — a seed on which the
/// chaos plan provokes hedges (`hedging.rs` asserts that it does).
const HEDGED_GOLDEN: Fingerprint = (0x0f3a_1c36_dbbc_b4cf, 5846, 36, 0x66e1_b827_7210_ee78);

/// The 36-endsystem chaos world, hedging on or off.
fn world(seed: u64, hedge: Option<HedgeConfig>) -> (SeaweedEngine, Seaweed<LiveTables>, Schema) {
    let seaweed = SeaweedConfig {
        hedge,
        ..Default::default()
    };
    chaos_world(N, ROUTERS, seed, chaos_sim, seaweed)
}

/// Runs the chaos scenario, oracle-clean at every checkpoint, and
/// returns its fingerprint.
fn run(seed: u64, hedge: Option<HedgeConfig>) -> Fingerprint {
    let hedging = hedge.is_some();
    let run = run_chaos(world(seed, hedge));
    run.assert_clean();
    if !hedging {
        // The tail-tolerance machinery must be fully inert.
        assert_eq!(run.stats.hedges_sent, 0);
        assert_eq!(run.stats.hedge_wasted_bytes, 0);
    }
    run.fingerprint()
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
    sw.run_until(&mut eng, CHAOS_T0);

    // First query: short lifetime so it expires mid-run.
    let h0 = sw
        .inject_query(
            &mut eng,
            NodeIdx(0),
            CHAOS_QUERY,
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
