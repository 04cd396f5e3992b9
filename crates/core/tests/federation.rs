//! Federated Seaweed under the partitioned parallel executor, with the
//! full chaos plan active in every shard.
//!
//! Three claims, pinned across 32 seeds, per satellite of DESIGN.md
//! §3.6:
//!
//! 1. [`ExecKind::Parallel`] is byte-identical to [`ExecKind::Serial`]:
//!    per-shard event-log fingerprints, result rows, bandwidth reports
//!    and the root's merged report stream all match exactly.
//! 2. The [`ChaosOracle`] invariants hold in every shard of the
//!    *parallel* run — faults, partition cuts, crash-amnesia and
//!    duplication do not corrupt protocol state under the executor.
//! 3. The fault machinery actually fires inside shards (duplicated
//!    messages observed), so the equivalence is not vacuous.

use std::fmt::Write as _;
use std::sync::Arc;

use proptest::prelude::*;
use seaweed_core::{
    build_world, flag_fixture, ChaosOracle, FedSchedule, FedShard, SeaweedConfig, SeaweedEngine,
};
use seaweed_overlay::OverlayConfig;
use seaweed_sim::exec::{partition_seed, run_partitioned, ExecConfig, ExecKind};
use seaweed_sim::{fnv1a, CorpNetTopology, FaultPlan, NodeIdx, SimConfig, SubTopology, Topology};
use seaweed_types::{Duration, Time};

const N: usize = 48;
const ROUTERS: usize = 24;
const PARTS: usize = 3;

/// Per-shard run fingerprint — everything that must be byte-identical
/// between serial and parallel execution.
#[derive(Debug, PartialEq)]
struct ShardResult {
    events: u64,
    rows: u64,
    merged_rows: u64,
    reports_received: u32,
    duplicated: u64,
    report: String,
    violations: Vec<String>,
}

fn run_federated(seed: u64, kind: ExecKind) -> Vec<ShardResult> {
    let global = Arc::new(CorpNetTopology::with_params(
        N,
        ROUTERS,
        Duration::MILLISECOND,
        seed,
    ));
    let pmap = global.partition_map(PARTS).expect("CorpNet partitions");
    assert!(
        pmap.lookahead >= Duration::MILLISECOND,
        "site cut must give >= 1 ms lookahead, got {:?}",
        pmap.lookahead
    );
    let origins: Vec<u32> = pmap.members.iter().map(|m| m[0]).collect();
    let plan = FaultPlan::chaos(&global, &origins);
    let schedule = FedSchedule {
        inject_at: Time::from_secs(600),
        report_at: Time::from_secs(1400),
    };
    let cfg = ExecConfig {
        kind,
        partitions: PARTS,
        workers: PARTS,
    };
    let build = |p: usize| {
        let members = pmap.members[p].clone();
        let shard_seed = partition_seed(seed, p);
        // Each endsystem's row carries its global number.
        let (tables, schema) = flag_fixture(members.iter().copied(), 1);
        let (mut eng, sw) = build_world(
            Box::new(SubTopology::new(global.clone(), members.clone())),
            shard_seed,
            SimConfig {
                loss_rate: 0.01,
                faults: Some(plan.for_partition(&members)),
                ..SimConfig::default()
            },
            OverlayConfig::default(),
            SeaweedConfig::default(),
            tables,
        );
        for (l, &g) in members.iter().enumerate() {
            eng.schedule_up(Time(1 + u64::from(g) * 300_000), NodeIdx(l as u32));
        }
        let app = FedShard::new(
            sw,
            p as u32,
            PARTS as u32,
            pmap.lookahead,
            schedule,
            "SELECT SUM(v) FROM T WHERE flag = 1",
            Duration::from_hours(4),
            schema,
        );
        (eng, app)
    };
    let finish = |p: usize, eng: SeaweedEngine, app: FedShard| {
        let oracle = ChaosOracle::new(pmap.members[p].len() as u64);
        let violations = oracle.check(&app.sw, &eng);
        ShardResult {
            events: app.events,
            rows: app.local_rows(),
            merged_rows: app.merged_rows,
            reports_received: app.reports_received,
            duplicated: eng.messages_duplicated,
            report: format!("{:?}", eng.finish()),
            violations,
        }
    };
    run_partitioned(&cfg, pmap.lookahead, Time::from_secs(1500), build, finish)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// 32-seed chaos sweep under `ExecKind::Parallel`: oracle-clean in
    /// every shard, byte-identical to `Serial`.
    #[test]
    fn federated_chaos_parallel_is_clean_and_serial_identical(seed in 0u64..10_000) {
        let parallel = run_federated(seed, ExecKind::Parallel);
        for (p, r) in parallel.iter().enumerate() {
            prop_assert!(
                r.violations.is_empty(),
                "oracle violations in shard {p} (seed {seed}):\n  {}",
                r.violations.join("\n  ")
            );
        }
        // The root heard from every other shard.
        prop_assert_eq!(parallel[0].reports_received, PARTS as u32 - 1);
        // Chaos actually fired inside the shards.
        let dup: u64 = parallel.iter().map(|r| r.duplicated).sum();
        prop_assert!(dup > 0, "no duplicated messages anywhere (seed {seed})");

        let serial = run_federated(seed, ExecKind::Serial);
        prop_assert_eq!(&parallel, &serial, "parallel vs serial (seed {seed})");
    }
}

/// Seed 7, serial and parallel, against the recorded fingerprint
/// (`goldens.rs` tells when it was re-recorded, four times, and why: at
/// PR 20 `log_len` 5827 → 5706, 103 replica deliveries accounted and
/// 77 → 59 retry-timer fires; at PR 24 5706 → 5279, 427 metadata
/// deliveries accounted; when the overlay stopped cancelling 5279 →
/// 5341, 51 join-retry and 11 detection no-op fires; rows and report hash
/// unmoved by any of them). The
/// shards keep no event log, so `log_hash` covers each
/// shard's counters (events, rows, merged rows, reports received,
/// duplicated messages) in shard order; `log_len` is the events summed
/// over shards, `rows` what the root merged, and `report_hash` covers
/// every shard's `BandwidthReport` rendering.
#[test]
fn federated_chaos_matches_golden() {
    let golden = (0xc195_b946_0cad_96c8, 5341, 32, 0xf339_9a2b_de92_f523);
    for kind in [ExecKind::Serial, ExecKind::Parallel] {
        let shards = run_federated(7, kind);
        let (mut counters, mut reports) = (String::new(), String::new());
        for r in &shards {
            assert!(r.violations.is_empty(), "{:?}", r.violations);
            let shard = (
                r.events,
                r.rows,
                r.merged_rows,
                r.reports_received,
                r.duplicated,
            );
            write!(counters, "{shard:?}").unwrap();
            reports.push_str(&r.report);
        }
        let (log_hash, report_hash) = (fnv1a(counters.as_bytes()), fnv1a(reports.as_bytes()));
        let log_len: u64 = shards.iter().map(|r| r.events).sum();
        assert_eq!(
            (log_hash, log_len, shards[0].merged_rows, report_hash),
            golden,
            "{kind:?}"
        );
    }
}
