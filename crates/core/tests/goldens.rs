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
//! re-anchor, then becomes a golden), then re-recorded four times, each
//! time by a change meant to alter the event stream (DESIGN.md "What is
//! simulated, what is accounted", and §3.5 for the last).
//!
//! At PR 16 leafset pulls between synced pairs stopped being events, so
//! a run delivers fewer events and every later loss and jitter draw of
//! the engine moves. EXPERIMENTS.md "PR 16" lists old and new `log_len`
//! per row and why seed 3 now ends a row short.
//!
//! At PR 20 the event-log half alone (`log_hash`, `log_len`) moved:
//! replica pushes to standing holders are accounted, an endsystem arms
//! one retry timer for its earliest deadline instead of one per
//! submission, and application timer tags are slab index plus
//! generation instead of a running count (the hash covers tags). Rows
//! and report hashes are to the bit what they were — the accounted send
//! takes every draw a delivered one does, and no push met a node-down,
//! a partition edge or an hour boundary in flight.
//!
//! At PR 24 the event-log half alone moved again: an endsystem's
//! periodic metadata push to a replica-set member already on its holder
//! list is accounted. Rows and report hashes are to the bit what they
//! were, in every row — no accounted push met a node-down or a partition
//! edge in flight, and none crossed an hour boundary (these runs end at
//! 1,500 s).
//!
//! When the protocol layer stopped cancelling timers (last column), the
//! event-log half alone moved once more: a timer that used to be
//! cancelled — a reported task's reissue and hedge timers, a retry timer
//! an earlier deadline superseded — now fires, as a no-op. Nothing it
//! does sends or draws, so rows and report hashes are to the bit what
//! they were, in every row; three rows move at all.
//!
//! Per row, `log_len` old → new: at PR 20 = replica deliveries accounted
//! plus retry-timer fires retired (old − new fires); at PR 24 = metadata
//! deliveries accounted (one per copy the network delivered: pushes
//! accounted, less those cut or lost at the send instant, plus
//! duplicates); in the last column = the application-timer cancels the
//! previous code made that reached their fire time (none met a node-down
//! first), closing exactly in all eleven rows:
//!
//! | row | PR 20 `log_len` | accounted | retry fires | PR 24 `log_len` | accounted | no-cancel `log_len` |
//! |---|---|---|---|---|---|---|
//! | seed 7 | 5836 → 5705 | 105 | 69 → 43 | 5705 → 5340 | 365 | 5340 |
//! | seed 11 | 5482 → 5342 | 112 | 76 → 48 | 5342 → 5070 | 272 | 5070 |
//! | seed 42 | 5510 → 5385 | 102 | 76 → 53 | 5385 → 5010 | 375 | 5010 |
//! | seed 1 | 5663 → 5541 | 94 | 81 → 53 | 5541 → 5223 | 318 | 5223 → 5225: 2 retry |
//! | seed 3 | 5479 → 5366 | 95 | 64 → 46 | 5366 → 5076 | 290 | 5076 |
//! | seed 23 | 5609 → 5480 | 101 | 73 → 45 | 5480 → 5078 | 402 | 5078 |
//! | seed 99 | 5453 → 5327 | 104 | 71 → 49 | 5327 → 5025 | 302 | 5025 |
//! | seed 1234 | 5528 → 5390 | 113 | 74 → 49 | 5390 → 5080 | 310 | 5080 |
//! | hedged, seed 7 | 5846 → 5710 | 110 | 70 → 44 | 5710 → 5315 | 395 | 5315 → 5351: 18 reissue + 18 hedge |
//! | `storm.rs`, seed 7 | 10866 → 9717 | 765 | 551 → 167 | 9717 → 9376 | 341 | 9376 → 9377: 1 retry |
//! | `federation.rs`, seed 7 | 5827 → 5706 | 103 | 77 → 59 | 5706 → 5279 | 427 | 5279 |
//!
//! When the overlay stopped cancelling too, the event-log half alone
//! moved again, in every row: a join retry that comes due after its join
//! completed, and a failure-detection timer armed before its watched
//! node came back up, now fire as no-ops. Nothing they do sends or
//! draws, so rows and report hashes are to the bit what they were. Per
//! row, `log_len` old → new is the join-retry plus detection no-op fires
//! less the detection timers the old cancel missed, closing exactly in
//! all eleven rows. (When two timers watched the same pair, the one that
//! fired first could take the other's bookkeeping entry; the other then
//! escaped the cancel at the watched node's return and fired in the old
//! code too, to no effect in any row here.)
//!
//! | row | `log_len` | join-retry no-ops | detection no-ops | detection timers the old cancel missed |
//! |---|---|---|---|---|
//! | seed 7 | 5340 → 5394 | 40 | 16 | 2 |
//! | seed 11 | 5070 → 5129 | 41 | 21 | 3 |
//! | seed 42 | 5010 → 5067 | 41 | 16 | 0 |
//! | seed 1 | 5225 → 5280 | 41 | 16 | 2 |
//! | seed 3 | 5076 → 5132 | 41 | 17 | 2 |
//! | seed 23 | 5078 → 5133 | 40 | 15 | 0 |
//! | seed 99 | 5025 → 5082 | 41 | 16 | 0 |
//! | seed 1234 | 5080 → 5135 | 42 | 15 | 2 |
//! | hedged, seed 7 | 5351 → 5405 | 40 | 16 | 2 |
//! | `storm.rs`, seed 7 | 9377 → 9432 | 40 | 17 | 2 |
//! | `federation.rs`, seed 7 | 5279 → 5341 | 51 | 11 | 0 |
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
    (7, (0x66f6_a1c7_ad8c_db40, 5394, 36, 0xb8d1_6c92_5711_ce54)),
    (11, (0xaeb0_a975_2f86_ba6b, 5129, 36, 0x71d9_0f65_3cbb_c736)),
    (42, (0x54b0_0e07_b3e7_6ec9, 5067, 36, 0x9a96_f90c_37b4_210e)),
    (1, (0xe47a_40ae_97af_f5a1, 5280, 36, 0xb4a8_4a34_60a5_01b2)),
    (3, (0x991e_fa28_c157_7ac9, 5132, 35, 0x58ab_bad0_3d93_24a9)),
    (23, (0x37ee_2c81_d123_dc07, 5133, 36, 0x4192_640e_77e1_12de)),
    (99, (0xa37f_f3d1_dcda_752e, 5082, 36, 0x0b94_707e_726e_2e67)),
    (
        1234,
        (0xe388_4f3d_2878_9b16, 5135, 36, 0x52b2_7c0e_3493_351a),
    ),
];

/// `hedge: Some(HedgeConfig::default())`, seed 7 — a seed on which the
/// chaos plan provokes hedges (`hedging.rs` asserts that it does).
const HEDGED_GOLDEN: Fingerprint = (0xbdcf_bf36_d674_334e, 5405, 36, 0x66e1_b827_7210_ee78);

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
