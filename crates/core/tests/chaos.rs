//! Chaos sweep: the full Seaweed stack under a deterministic fault plan
//! combining a structural partition, crash-amnesia, a correlated branch
//! outage, link degradation, message duplication and bounded reordering.
//! Across many seeds the [`ChaosOracle`] invariants must hold at every
//! checkpoint, and the same seed must reproduce a byte-identical event
//! log.

use proptest::prelude::*;
use seaweed_core::{
    chaos_sim, chaos_world, inject_chaos_query, run_chaos, ChaosOracle, ChaosRun, SeaweedConfig,
    CHAOS_T0,
};
use seaweed_sim::{FaultPlan, OutageSpec, SimConfig, TraceConfig};
use seaweed_types::Time;

const N: usize = 36;
const ROUTERS: usize = 24;

/// The chaos scenario over the 36-endsystem world, with or without
/// engine tracing.
fn run(seed: u64, trace: bool) -> ChaosRun {
    run_chaos(chaos_world(
        N,
        ROUTERS,
        seed,
        |topo| SimConfig {
            trace: trace.then(TraceConfig::default),
            ..chaos_sim(topo)
        },
        SeaweedConfig::default(),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn chaos_invariants_hold_and_runs_are_deterministic(seed in 0u64..10_000) {
        let a = run(seed, false);
        prop_assert!(
            a.violations.is_empty(),
            "oracle violations (seed {seed}):\n  {}",
            a.violations.join("\n  ")
        );
        // Every fault class must actually have fired.
        prop_assert!(a.stats.amnesia_crashes >= 2, "amnesia crashes: {}", a.stats.amnesia_crashes);
        prop_assert!(a.report.drops.duplicated > 0, "no duplicated messages");
        prop_assert!(a.report.drops.partition > 0, "partition cut no traffic");
        // Delay-aware, not wrong: results may be incomplete under faults
        // but never inflated (the oracle checked rows <= N), and most of
        // the population converges once everything heals.
        prop_assert!(
            a.rows >= (N as u64) * 55 / 100,
            "rows {} of {N} after heal",
            a.rows
        );

        // Same seed, byte-identical schedule.
        let b = run(seed, false);
        prop_assert_eq!(a.fingerprint(), b.fingerprint(), "event logs diverged (seed {})", seed);
    }

    /// The full chaos run with engine tracing enabled stays oracle-clean
    /// and its event-log fingerprint is identical to the tracing-off run
    /// of the same seed: observation never perturbs the schedule.
    #[test]
    fn chaos_with_tracing_matches_untraced(seed in 0u64..10_000) {
        let traced = run(seed, true);
        prop_assert!(
            traced.violations.is_empty(),
            "oracle violations under tracing (seed {seed}):\n  {}",
            traced.violations.join("\n  ")
        );
        prop_assert!(traced.trace_recorded > 0, "tracer captured nothing");
        let plain = run(seed, false);
        prop_assert_eq!(plain.trace_recorded, 0);
        prop_assert_eq!(traced.fingerprint(), plain.fingerprint(), "tracing perturbed the schedule (seed {})", seed);
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
    let (mut eng, mut sw, schema) = chaos_world(
        N,
        ROUTERS,
        7,
        |topo| SimConfig {
            faults: Some(plan),
            ..chaos_sim(topo)
        },
        SeaweedConfig::default(),
    );
    sw.run_until(&mut eng, CHAOS_T0);
    inject_chaos_query(&mut eng, &mut sw, &schema);
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
