//! Storm-mode tests: the concurrent multi-query engine (admission
//! control, slot recycling behind generation counters, fair scan
//! scheduling) against the PR-1/PR-5 determinism bar.
//!
//! * A K=1 storm run must be **byte-identical** to the storm-off
//!   baseline under the full chaos plan: same event-log fingerprint,
//!   same rows, same bandwidth report. The storm machinery may only
//!   change behaviour when queries actually contend.
//! * K concurrent queries must each converge to the same rows they get
//!   when run alone (same seed) — fair scheduling may reorder work but
//!   must never lose or duplicate contributions.
//! * Under the full chaos plan with slot-recycling pressure the run
//!   must stay oracle-clean (exactly-once, predictor sanity, storm
//!   hygiene) and be bit-stable across repeated runs, for 16 seeds.
//! * A delayed reply addressed to an expired query's recycled slot must
//!   be rejected at the message boundary (`stale_handle_drops`), leaving
//!   the slot's new tenant untouched.

use proptest::prelude::*;
use seaweed_core::{
    boot_staggered, build_world, flag_fixture, ChaosOracle, LiveTables, Seaweed, SeaweedConfig,
    SeaweedEngine, SeaweedMsg, StormConfig, Submission,
};
use seaweed_overlay::{OverlayConfig, OverlayMsg};
use seaweed_sim::{
    fnv1a, CorpNetTopology, Event, EventLog, FaultPlan, NodeIdx, Payload, SimConfig,
};
use seaweed_store::{AggFunc, Aggregate, Schema};
use seaweed_types::{Duration, Time};

const N: usize = 36;
const ROUTERS: usize = 24;
/// Rows per endsystem fragment, all matching every test predicate.
/// More than one row so that `quantum_rows: 1` storm configs force a
/// scan through multiple preemption quanta (exercising the slicing
/// path, not just the batching path).
const ROWS_PER_NODE: usize = 3;
/// Ground-truth matching rows across the population.
const TOTAL_ROWS: u64 = (N * ROWS_PER_NODE) as u64;
/// Query injection time; all fault windows are anchored after it.
const T0: u64 = 600_000_000; // 600 s in µs

struct WorldSpec {
    seed: u64,
    storm: Option<StormConfig>,
    chaos: bool,
}

/// The 36-endsystem world of `spec`, staggered boot scheduled.
fn world(spec: &WorldSpec) -> (SeaweedEngine, Seaweed<LiveTables>, Schema) {
    let (tables, schema) = flag_fixture(0..N as u32, ROWS_PER_NODE);
    let topo = CorpNetTopology::with_params(N, ROUTERS, Duration::MILLISECOND, spec.seed);
    let faults = spec.chaos.then(|| FaultPlan::chaos(&topo, &[]));
    let (mut eng, sw) = build_world(
        Box::new(topo),
        spec.seed,
        SimConfig {
            loss_rate: if spec.chaos { 0.01 } else { 0.0 },
            faults,
            ..SimConfig::default()
        },
        OverlayConfig::default(),
        SeaweedConfig {
            storm: spec.storm.clone(),
            ..Default::default()
        },
        tables,
    );
    boot_staggered(&mut eng, Duration::from_millis(300));
    (eng, sw, schema)
}

struct ChaosRun {
    log_hash: u64,
    log_len: u64,
    rows: u64,
    violations: Vec<String>,
    report: String,
}

/// One full chaos run injecting a single query at T0. With
/// `storm: Some(..)` the query goes through `submit_query`; otherwise
/// through the baseline `inject_query`. Used for the K=1 byte-identity
/// bar.
fn run_chaos_single(spec: &WorldSpec) -> ChaosRun {
    let (mut eng, mut sw, schema) = world(spec);
    let mut log = EventLog::new();
    sw.run_until_logged(&mut eng, Time(T0), &mut log);
    assert_eq!(sw.overlay.num_joined(), N, "all join before the faults");

    let sql = "SELECT SUM(v) FROM T WHERE flag = 1";
    let ttl = Duration::from_hours(4);
    let h = if spec.storm.is_some() {
        match sw
            .submit_query(&mut eng, NodeIdx(0), sql, ttl, &schema)
            .unwrap()
        {
            Submission::Admitted(h) => h,
            Submission::Queued(t) => panic!("K=1 submission queued (ticket {t})"),
        }
    } else {
        sw.inject_query(&mut eng, NodeIdx(0), sql, ttl, &schema)
            .unwrap()
    };

    let oracle = ChaosOracle::new(TOTAL_ROWS);
    let mut violations = Vec::new();
    for t in [650, 720, 800, 1000, 1500] {
        sw.run_until_logged(&mut eng, Time::from_secs(t), &mut log);
        violations.extend(oracle.check(&sw, &eng));
    }

    ChaosRun {
        log_hash: log.hash(),
        log_len: log.events(),
        rows: sw.query(h).rows(),
        violations,
        report: format!("{:?}", eng.finish()),
    }
}

/// Tentpole gate: a 1-query storm takes the exact baseline code path —
/// event-for-event. Any divergence means storm mode perturbs the
/// uncontended protocol.
#[test]
fn k1_storm_is_byte_identical_to_baseline() {
    for seed in [3u64, 17] {
        let base = run_chaos_single(&WorldSpec {
            seed,
            storm: None,
            chaos: true,
        });
        let storm = run_chaos_single(&WorldSpec {
            seed,
            storm: Some(StormConfig::default()),
            chaos: true,
        });
        assert!(base.violations.is_empty(), "{:?}", base.violations);
        assert!(storm.violations.is_empty(), "{:?}", storm.violations);
        assert_eq!(
            base.log_hash, storm.log_hash,
            "K=1 storm event log diverged from baseline (seed {seed})"
        );
        assert_eq!(base.log_len, storm.log_len);
        assert_eq!(base.rows, storm.rows);
        assert_eq!(
            base.report, storm.report,
            "bandwidth reports diverged (seed {seed})"
        );
    }
}

/// Per-query distinct predicates that all match every row (one row per
/// endsystem with flag = 1), so the K queries have distinct identities
/// but identical ground truth.
fn storm_sql(i: usize) -> String {
    format!("SELECT SUM(v) FROM T WHERE flag < {}", 2 + i as i64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Fair-scheduling correctness: K queries run concurrently see
    /// exactly the rows each sees alone (same seed). The scan scheduler
    /// may interleave and batch work but must never lose or duplicate a
    /// contribution.
    #[test]
    fn concurrent_queries_match_solo_rows(seed in 0u64..10_000, k in 2usize..6) {
        let spec = WorldSpec {
            seed,
            storm: Some(StormConfig {
                // Tight quanta so contended endsystems actually
                // slice and share scans at this tiny scale.
                quantum_rows: 1,
                max_batch: 4,
                ..StormConfig::default()
            }),
            chaos: false,
        };
        // Concurrent: all K injected back-to-back at T0.
        let (mut eng, mut sw, schema) = world(&spec);
        sw.run_until(&mut eng, Time(T0));
        let mut handles = Vec::new();
        for i in 0..k {
            let sub = sw
                .submit_query(
                    &mut eng,
                    NodeIdx((i % N) as u32),
                    &storm_sql(i),
                    Duration::from_hours(4),
                    &schema,
                )
                .unwrap();
            match sub {
                Submission::Admitted(h) => handles.push(h),
                Submission::Queued(t) => panic!("K<{k} under budget queued ({t})"),
            }
        }
        sw.run_until(&mut eng, Time::from_secs(1800));
        let oracle = ChaosOracle::new(TOTAL_ROWS);
        oracle.assert_clean(&sw, &eng);
        let together: Vec<u64> =
            handles.iter().map(|&h| sw.query(h).rows()).collect();

        // Alone: each query in a fresh world, same seed.
        for (i, &rows_together) in together.iter().enumerate() {
            let (mut eng, mut sw, schema) = world(&spec);
            sw.run_until(&mut eng, Time(T0));
            let Submission::Admitted(h) = sw
                .submit_query(
                    &mut eng,
                    NodeIdx((i % N) as u32),
                    &storm_sql(i),
                    Duration::from_hours(4),
                    &schema,
                )
                .unwrap()
            else {
                panic!("solo submission queued")
            };
            sw.run_until(&mut eng, Time::from_secs(1800));
            prop_assert_eq!(
                rows_together,
                sw.query(h).rows(),
                "query {} sees different rows under contention (seed {}, k {})",
                i, seed, k
            );
        }
    }
}

/// One chaos run under storm pressure: 8 queries against a budget of 4,
/// so half park in the admission queue, and short TTLs force expiry →
/// release → admission churn (slot recycling, generation bumps) across
/// the fault windows. Oracle-checked at every checkpoint. Returns the
/// `(log_hash, log_len, results_at_origin, report_hash)` fingerprint and
/// the tickets admitted from the queue, in order.
fn chaos_storm(seed: u64) -> ((u64, u64, u64, u64), Vec<u64>) {
    let spec = WorldSpec {
        seed,
        storm: Some(StormConfig {
            max_in_flight: 4,
            quantum_rows: 1,
            ..StormConfig::default()
        }),
        chaos: true,
    };
    let (mut eng, mut sw, schema) = world(&spec);
    let mut log = EventLog::new();
    sw.run_until_logged(&mut eng, Time(T0), &mut log);
    for i in 0..8 {
        let ttl = Duration::from_secs(120 + 60 * i as u64);
        sw.submit_query(&mut eng, NodeIdx(0), &storm_sql(i), ttl, &schema)
            .unwrap();
    }
    let oracle = ChaosOracle::new(TOTAL_ROWS);
    for t in [650, 720, 800, 1000, 1500] {
        sw.run_until_logged(&mut eng, Time::from_secs(t), &mut log);
        let v = oracle.check(&sw, &eng);
        assert!(
            v.is_empty(),
            "oracle violations (seed {seed}, t {t}):\n  {}",
            v.join("\n  ")
        );
    }
    let admitted: Vec<u64> = sw.drain_admissions().iter().map(|&(t, _)| t).collect();
    let results = sw.stats.results_at_origin;
    let report = fnv1a(format!("{:?}", eng.finish()).as_bytes());
    ((log.hash(), log.events(), results, report), admitted)
}

/// Chaos under storm pressure, 16 seeds: each run must stay oracle-clean
/// (asserted inside `chaos_storm`) and be bit-stable — the same
/// fingerprint twice.
#[test]
fn sixteen_seed_chaos_storm_is_clean_and_stable() {
    for seed in 0u64..16 {
        let a = chaos_storm(seed);
        let b = chaos_storm(seed);
        assert_eq!(a, b, "chaos storm not bit-stable (seed {seed})");
    }
}

/// Seed 7 of the run above. `goldens.rs` explains the fingerprint and
/// tabulates this row's `log_len` through its re-recordings, the last
/// included: 9377 → 9432 when the overlay stopped cancelling, 40
/// join-retry and 17 detection no-op fires less 2 detection timers the
/// old cancel missed. The results at the origins and the report hash
/// are unmoved by the last four.
#[test]
fn chaos_storm_matches_golden() {
    let golden = (0x972b_b07d_567d_30cc, 9432, 318, 0xa657_304b_ae05_e976);
    assert_eq!(chaos_storm(7), (golden, vec![0, 1, 2, 3]));
}

/// Satellite-1 regression: expire query A, let its slot recycle into
/// query B, then deliver a forged "delayed reply" still addressed to
/// A's old handle. The reply must be dropped at the message boundary
/// (`stale_handle_drops`), and B must be untouched.
#[test]
fn stale_reply_to_recycled_slot_is_dropped() {
    let spec = WorldSpec {
        seed: 11,
        storm: Some(StormConfig::default()),
        chaos: false,
    };
    let (mut eng, mut sw, schema) = world(&spec);
    sw.run_until(&mut eng, Time(T0));

    // Query A: short TTL so it expires and releases its slot.
    let Submission::Admitted(h_a) = sw
        .submit_query(
            &mut eng,
            NodeIdx(0),
            "SELECT SUM(v) FROM T WHERE flag = 1",
            Duration::from_secs(120),
            &schema,
        )
        .unwrap()
    else {
        panic!("A queued")
    };
    sw.run_until(&mut eng, Time::from_secs(900));
    assert_eq!(sw.storm_in_flight(), 0, "A must have expired and released");

    // Query B recycles A's slot under a bumped generation.
    let Submission::Admitted(h_b) = sw
        .submit_query(
            &mut eng,
            NodeIdx(0),
            "SELECT COUNT(*) FROM T WHERE flag = 1",
            Duration::from_hours(2),
            &schema,
        )
        .unwrap()
    else {
        panic!("B queued")
    };
    assert_ne!(h_a, h_b, "handles are never reused");
    sw.run_until(&mut eng, Time::from_secs(1800));
    let rows_b = sw.query(h_b).rows();
    assert_eq!(rows_b, TOTAL_ROWS, "B converges before the stale delivery");
    let version_b = sw.query(h_b).latest_version;
    let drops_before = sw.stats.stale_handle_drops;

    // A's "delayed reply": a root-aggregate push carrying A's old
    // handle, a huge row count and a version far beyond B's. Without
    // generation checking this would overwrite B's result at the
    // origin.
    let mut agg = Aggregate::empty(AggFunc::Sum);
    for _ in 0..12_345 {
        agg.fold(1.0);
    }
    let forged = Event::Message {
        from: NodeIdx(1),
        to: NodeIdx(0),
        payload: Payload::Owned(OverlayMsg::App(SeaweedMsg::ResultToOrigin {
            query: h_a,
            agg,
            version: version_b + 1_000,
        })),
    };
    sw.dispatch(&mut eng, forged);

    assert_eq!(
        sw.stats.stale_handle_drops,
        drops_before + 1,
        "forged reply must be counted as a stale drop"
    );
    assert_eq!(sw.query(h_b).rows(), rows_b, "B's rows must be untouched");
    assert_eq!(
        sw.query(h_b).latest_version,
        version_b,
        "B's version must be untouched"
    );
    let oracle = ChaosOracle::new(TOTAL_ROWS);
    oracle.assert_clean(&sw, &eng);
}

/// Admission control mechanics without faults: a burst of 3× the budget
/// admits exactly `budget` immediately, parks the rest in ticket order,
/// and promotes them in order as retirements free slots.
#[test]
fn admission_queue_promotes_in_ticket_order() {
    let spec = WorldSpec {
        seed: 5,
        storm: Some(StormConfig {
            max_in_flight: 2,
            ..StormConfig::default()
        }),
        chaos: false,
    };
    let (mut eng, mut sw, schema) = world(&spec);
    sw.run_until(&mut eng, Time(T0));

    let mut admitted = Vec::new();
    let mut queued = Vec::new();
    for i in 0..6 {
        match sw
            .submit_query(
                &mut eng,
                NodeIdx(i as u32),
                &storm_sql(i),
                Duration::from_hours(4),
                &schema,
            )
            .unwrap()
        {
            Submission::Admitted(h) => admitted.push(h),
            Submission::Queued(t) => queued.push(t),
        }
    }
    assert_eq!(admitted.len(), 2, "budget admits exactly 2");
    assert_eq!(queued.len(), 4);
    assert!(queued.windows(2).all(|w| w[0] < w[1]), "tickets ascend");
    assert_eq!(sw.storm_queue_len(), 4);
    assert_eq!(sw.stats.storm_admitted, 2);
    assert_eq!(sw.stats.storm_queued, 4);

    // Let the two in-flight queries finish, then retire them: the queue
    // must drain in ticket order, two at a time.
    sw.run_until(&mut eng, Time::from_secs(1200));
    for &h in &admitted {
        assert_eq!(sw.query(h).rows(), TOTAL_ROWS);
        sw.retire_query(&mut eng, h);
    }
    let promoted = sw.drain_admissions();
    assert_eq!(promoted.len(), 2, "two freed slots admit two tickets");
    assert_eq!(promoted[0].0, queued[0]);
    assert_eq!(promoted[1].0, queued[1]);
    assert_eq!(sw.storm_queue_len(), 2);

    sw.run_until(&mut eng, Time::from_secs(2400));
    for &(_, h) in &promoted {
        assert_eq!(sw.query(h).rows(), TOTAL_ROWS, "promoted queries converge");
        sw.retire_query(&mut eng, h);
    }
    let rest = sw.drain_admissions();
    assert_eq!(rest.len(), 2);
    assert_eq!(rest[0].0, queued[2]);
    assert_eq!(rest[1].0, queued[3]);
    sw.run_until(&mut eng, Time::from_secs(3600));
    for &(_, h) in &rest {
        assert_eq!(sw.query(h).rows(), TOTAL_ROWS);
    }
    let oracle = ChaosOracle::new(TOTAL_ROWS);
    oracle.assert_clean(&sw, &eng);
}
