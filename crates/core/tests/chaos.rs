//! Chaos sweep: the full Seaweed stack under a deterministic fault plan
//! combining a structural partition, crash-amnesia, a correlated branch
//! outage, link degradation, message duplication and bounded reordering.
//! Across many seeds the [`ChaosOracle`] invariants must hold at every
//! checkpoint, and the same seed must reproduce a byte-identical event
//! log.

use proptest::prelude::*;
use seaweed_core::{
    boot_staggered, build_world, flag_fixture, ChaosOracle, LiveTables, Seaweed, SeaweedConfig,
    SeaweedEngine,
};
use seaweed_overlay::OverlayConfig;
use seaweed_sim::{
    CorpNetTopology, EventLog, FaultPlan, NodeIdx, OutageSpec, SimConfig, TraceConfig,
};
use seaweed_store::Schema;
use seaweed_types::{Duration, Time};

const N: usize = 36;
const ROUTERS: usize = 24;
/// Query injection time; all fault windows are anchored after it.
const T0: u64 = 600_000_000; // 600 s in µs

/// The 36-endsystem world under `plan`, or under the shared chaos plan
/// when `None`; staggered boot scheduled.
fn world(
    seed: u64,
    trace: bool,
    plan: Option<FaultPlan>,
) -> (SeaweedEngine, Seaweed<LiveTables>, Schema) {
    let (tables, schema) = flag_fixture(0..N as u32, 1);
    let topo = CorpNetTopology::with_params(N, ROUTERS, Duration::MILLISECOND, seed);
    let plan = plan.unwrap_or_else(|| FaultPlan::chaos(&topo, &[]));
    let (mut eng, sw) = build_world(
        Box::new(topo),
        seed,
        SimConfig {
            loss_rate: 0.01,
            faults: Some(plan),
            trace: trace.then(TraceConfig::default),
            ..SimConfig::default()
        },
        OverlayConfig::default(),
        SeaweedConfig::default(),
        tables,
    );
    boot_staggered(&mut eng, Duration::from_millis(300));
    (eng, sw, schema)
}

struct RunResult {
    log_hash: u64,
    log_len: u64,
    rows: u64,
    violations: Vec<String>,
    amnesia_crashes: u64,
    duplicated: u64,
    dropped_partition: u64,
    trace_recorded: u64,
}

fn run_chaos(seed: u64, trace: bool) -> RunResult {
    let (mut eng, mut sw, schema) = world(seed, trace, None);
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

    // Checkpoints straddle every fault window: mid-partition/outage,
    // post-crash-rejoin, post-heal, and converged.
    let oracle = ChaosOracle::new(N as u64);
    let mut violations = Vec::new();
    for t in [650, 720, 800, 1000, 1500] {
        sw.run_until_logged(&mut eng, Time::from_secs(t), &mut log);
        violations.extend(oracle.check(&sw, &eng));
    }

    RunResult {
        log_hash: log.hash(),
        log_len: log.events(),
        rows: sw.query(0).rows(),
        violations,
        amnesia_crashes: sw.stats.amnesia_crashes,
        duplicated: eng.messages_duplicated,
        dropped_partition: eng.dropped_partition,
        trace_recorded: eng.tracer().map_or(0, seaweed_sim::Tracer::recorded),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn chaos_invariants_hold_and_runs_are_deterministic(seed in 0u64..10_000) {
        let a = run_chaos(seed, false);
        prop_assert!(
            a.violations.is_empty(),
            "oracle violations (seed {seed}):\n  {}",
            a.violations.join("\n  ")
        );
        // Every fault class must actually have fired.
        prop_assert!(a.amnesia_crashes >= 2, "amnesia crashes: {}", a.amnesia_crashes);
        prop_assert!(a.duplicated > 0, "no duplicated messages");
        prop_assert!(a.dropped_partition > 0, "partition cut no traffic");
        // Delay-aware, not wrong: results may be incomplete under faults
        // but never inflated (the oracle checked rows <= N), and most of
        // the population converges once everything heals.
        prop_assert!(
            a.rows >= (N as u64) * 55 / 100,
            "rows {} of {N} after heal",
            a.rows
        );

        // Same seed, byte-identical schedule.
        let b = run_chaos(seed, false);
        prop_assert_eq!(a.log_hash, b.log_hash, "event logs diverged (seed {})", seed);
        prop_assert_eq!(a.log_len, b.log_len);
        prop_assert_eq!(a.rows, b.rows);
    }

    /// The full chaos run with engine tracing enabled stays oracle-clean
    /// and its event-log fingerprint is identical to the tracing-off run
    /// of the same seed: observation never perturbs the schedule.
    #[test]
    fn chaos_with_tracing_matches_untraced(seed in 0u64..10_000) {
        let traced = run_chaos(seed, true);
        prop_assert!(
            traced.violations.is_empty(),
            "oracle violations under tracing (seed {seed}):\n  {}",
            traced.violations.join("\n  ")
        );
        prop_assert!(traced.trace_recorded > 0, "tracer captured nothing");
        let plain = run_chaos(seed, false);
        prop_assert_eq!(plain.trace_recorded, 0);
        prop_assert_eq!(traced.log_hash, plain.log_hash, "tracing perturbed the schedule (seed {})", seed);
        prop_assert_eq!(traced.log_len, plain.log_len);
        prop_assert_eq!(traced.rows, plain.rows);
    }
}

/// Regression: when the last live holder of an aggregation vertex is
/// found dead, the vertex state is dropped — and so must be the
/// membership of the holders still listed (down, their own failure not
/// yet detected). A clean outage of 28 of the 36 endsystems, longer than
/// the failure-detection delay, takes whole replica groups down at once;
/// the survivors' detections then reach that branch.
#[test]
fn a_vertex_lost_with_all_its_holders_leaves_no_membership_behind() {
    let outage = OutageSpec {
        members: (8..N as u32).collect(),
        down_at: Time::from_secs(640),
        up_at: Time::from_secs(900),
        amnesia: false,
    };
    let plan = FaultPlan {
        outages: vec![outage],
        ..FaultPlan::default()
    };
    let (mut eng, mut sw, schema) = world(7, false, Some(plan));
    sw.run_until(&mut eng, Time(T0));
    sw.inject_query(
        &mut eng,
        NodeIdx(0),
        "SELECT SUM(v) FROM T WHERE flag = 1",
        Duration::from_hours(4),
        &schema,
    )
    .unwrap();
    let oracle = ChaosOracle::new(N as u64);
    for t in [700, 760, 880, 1000, 1500] {
        sw.run_until(&mut eng, Time::from_secs(t));
        oracle.assert_clean(&sw, &eng);
    }
    assert!(
        sw.stats.vertex_states_lost > 0,
        "the outage never cost a vertex all its holders"
    );
}
