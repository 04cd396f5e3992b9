//! Result-retransmission backoff: while a submission target is
//! unreachable (here: behind a partition), a fixed retry period hammers
//! the cut with doomed retransmissions; the capped exponential backoff
//! sends far fewer — and both converge to the same exact answer once
//! the partition heals.

use seaweed_core::{boot_staggered, build_world, flag_fixture, SeaweedConfig};
use seaweed_overlay::OverlayConfig;
use seaweed_sim::{FaultPlan, NodeIdx, PartitionSpec, SimConfig, UniformTopology};
use seaweed_types::{Duration, Time};

const N: usize = 30;
const SEED: u64 = 11;

/// Runs the 5%-loss partition scenario with the given retry cap and
/// returns `(result_retries, rows at origin)`.
fn run(result_retry_cap: Duration) -> (u64, u64) {
    let (tables, schema) = flag_fixture(0..N as u32, 1);
    // A third of the population is cut off for two minutes; the query is
    // injected mid-partition, so majority-side submissions whose vertex
    // targets sit behind the cut are dropped and retry until the routing
    // state converges — a fixed period hammers the cut, backoff does not.
    let plan = FaultPlan {
        partitions: vec![PartitionSpec {
            members: (20..N as u32).collect(),
            from: Time::from_secs(905),
            until: Time::from_secs(1025),
        }],
        ..FaultPlan::default()
    };
    let (mut eng, mut sw) = build_world(
        Box::new(UniformTopology::new(N, Duration::from_millis(5))),
        SEED,
        SimConfig {
            loss_rate: 0.05,
            faults: Some(plan),
            ..SimConfig::default()
        },
        OverlayConfig::default(),
        SeaweedConfig {
            result_retry: Duration::from_secs(2),
            result_retry_cap,
            ..Default::default()
        },
        tables,
    );
    boot_staggered(&mut eng, Duration::from_millis(700));
    sw.run_until(&mut eng, Time::from_secs(900));
    assert_eq!(sw.overlay.num_joined(), N, "all join before the partition");
    sw.run_until(&mut eng, Time::from_secs(910));

    let h = sw
        .inject_query(
            &mut eng,
            NodeIdx(0),
            "SELECT SUM(v) FROM T WHERE flag = 1",
            Duration::from_hours(4),
            &schema,
        )
        .unwrap();
    sw.run_until(&mut eng, Time::from_secs(1800));
    assert!(eng.dropped_partition > 0, "partition cut no traffic");
    (sw.stats.result_retries, sw.query(h).rows())
}

#[test]
fn exponential_backoff_retransmits_less_than_fixed_retry() {
    // cap == base degenerates to the old fixed-period retry.
    let (fixed_retries, fixed_rows) = run(Duration::from_secs(2));
    let (backoff_retries, backoff_rows) = run(Duration::from_secs(64));

    assert_eq!(fixed_rows, N as u64, "fixed retry converges after heal");
    assert_eq!(backoff_rows, N as u64, "backoff converges after heal");
    assert!(
        backoff_retries < fixed_retries,
        "backoff must retransmit less: {backoff_retries} vs {fixed_retries}"
    );
    // The gap should be substantial across a two-minute outage (fixed
    // retries every 2 s; backoff reaches its cap after a handful).
    assert!(
        2 * backoff_retries <= fixed_retries,
        "expected at least a 2x reduction: {backoff_retries} vs {fixed_retries}"
    );
}
