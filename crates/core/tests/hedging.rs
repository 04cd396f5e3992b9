//! Chaos testing with hedged dissemination ON.
//!
//! `goldens.rs` pins hedging-off to the pre-hedging byte stream; this
//! file turns the tail-tolerance machinery on (hedged requests, with
//! reissues diverted to live cover candidates) under the full chaos plan
//! and checks the properties that must survive it: every oracle invariant
//! (including exactly-once and the new timer-hygiene/hedge-accounting
//! checks), deterministic replay, and sane hedge bookkeeping.

use proptest::prelude::*;
use seaweed_core::{ChaosOracle, HedgeConfig, LiveTables, Seaweed, SeaweedConfig, SeaweedEngine};
use seaweed_overlay::{Overlay, OverlayConfig};
use seaweed_sim::{CorpNetTopology, Engine, Event, FaultPlan, NodeIdx, SimConfig};
use seaweed_store::{ColumnDef, DataType, Schema, Table, Value};
use seaweed_types::{Duration, Time};

const N: usize = 36;
const ROUTERS: usize = 24;
const T0: u64 = 600_000_000;

fn secs(s: u64) -> Time {
    Time(s * 1_000_000)
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

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
    let schema = Schema::new(
        "T",
        vec![
            ColumnDef::new("flag", DataType::Int, true),
            ColumnDef::new("v", DataType::Int, true),
        ],
    );
    let mut tables = Vec::with_capacity(N);
    for node in 0..N {
        let mut t = Table::new(schema.clone());
        t.insert(vec![Value::Int(1), Value::Int(node as i64 + 1)])
            .unwrap();
        tables.push(t);
    }
    let topo = CorpNetTopology::with_params(N, ROUTERS, Duration::MILLISECOND, seed);
    let plan = FaultPlan::chaos(&topo, &[]);
    let mut eng: SeaweedEngine = Engine::new(
        Box::new(topo),
        SimConfig {
            seed,
            loss_rate: 0.01,
            faults: Some(plan),
            ..SimConfig::default()
        },
    );
    let overlay = Overlay::new(
        Overlay::random_ids(N, seed),
        OverlayConfig {
            seed,
            ..Default::default()
        },
    );
    let mut sw = Seaweed::new(
        overlay,
        LiveTables::new(tables),
        SeaweedConfig {
            seed,
            hedge: Some(HedgeConfig::default()),
            ..Default::default()
        },
    );
    for i in 0..N {
        eng.schedule_up(Time(1 + i as u64 * 300_000), NodeIdx(i as u32));
    }
    let mut log_hash = 0xcbf2_9ce4_8422_2325u64;
    let mut log_len = 0u64;
    let mut drive = |eng: &mut SeaweedEngine, sw: &mut Seaweed<LiveTables>, horizon: Time| {
        while let Some((t, ev)) = eng.next_event_before(horizon) {
            let desc = match ev {
                Event::Message { from, to, .. } => {
                    format!("m:{}:{}:{}", t.as_micros(), from.0, to.0)
                }
                Event::Timer { node, tag } => format!("t:{}:{}:{tag}", t.as_micros(), node.0),
                Event::NodeUp { node } => format!("u:{}:{}", t.as_micros(), node.0),
                Event::NodeDown { node } => format!("d:{}:{}", t.as_micros(), node.0),
                Event::NodeCrash { node } => format!("c:{}:{}", t.as_micros(), node.0),
                Event::PartitionStart { partition } => format!("ps:{}:{partition}", t.as_micros()),
                Event::PartitionEnd { partition } => format!("pe:{}:{partition}", t.as_micros()),
            };
            fnv(&mut log_hash, desc.as_bytes());
            log_len += 1;
            sw.dispatch(eng, ev);
        }
    };
    drive(&mut eng, &mut sw, Time(T0));
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
        drive(&mut eng, &mut sw, secs(t));
        oracle.assert_clean(&sw, &eng);
    }
    RunResult {
        log_hash,
        log_len,
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
