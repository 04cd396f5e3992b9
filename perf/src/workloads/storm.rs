//! `query_storm`: every endsystem up, K concurrent one-shot aggregates
//! submitted in one burst through storm admission, over live tables big
//! enough that the scan scheduler's quantum splits each contended scan.
//! Dissemination, result aggregation, the storm scheduler and live store
//! scans do the work; maintenance traffic is a small share.

use std::collections::BTreeMap;
use std::time::Instant;

use seaweed_core::{LiveTables, QueryHandle, SeaweedConfig, StormConfig, Submission};
use seaweed_sim::NodeIdx;
use seaweed_store::exec::execute;
use seaweed_store::{Aggregate, ColumnDef, DataType, Schema, Table, Value};
use seaweed_types::{Duration, Time};

use super::{build_stack, drive_sliced, finish_stack, mix, rss_mb, Ran, Rep, Size};
use crate::classify::Class;
use crate::drive::{charged, StoreProbe};
use crate::outcome::{query_outcome, Outcome, QueryOutcome, Stage, Truth};
use crate::timed::TimedProvider;

#[derive(Debug, Clone, Copy)]
struct Scenario {
    endsystems: usize,
    queries: usize,
    rows_per_endsystem: usize,
}

fn scenario(size: Size) -> Scenario {
    match size {
        Size::Full => Scenario {
            endsystems: 2_000,
            queries: 100,
            rows_per_endsystem: 256,
        },
        Size::Smoke => Scenario {
            endsystems: 200,
            queries: 12,
            rows_per_endsystem: 256,
        },
    }
}

/// Half a fragment per quantum: a contended scan takes two.
const QUANTUM_ROWS: u64 = 128;
/// The burst, after joins and one metadata-push cycle.
const BURST_AT: Time = Time(900 * Duration::SECOND.0);
/// Simulated seconds between harvests of completed queries.
const HARVEST_EVERY: Duration = Duration(10 * Duration::SECOND.0);
/// Simulated time per slice of the timed phase, before the burst and
/// after it. Nearly all the host time falls in the 0.7 simulated seconds
/// after each wave of admissions: tens of milliseconds per slice there.
const QUIET_SLICE: Duration = Duration(5 * Duration::SECOND.0);
const STORM_SLICE: Duration = Duration(Duration::SECOND.0 / 200);
/// A storm that has not drained by then has stalled.
const GIVE_UP: Time = Time(3 * Duration::HOUR.0);

fn schema() -> Schema {
    Schema::new(
        "T",
        vec![
            ColumnDef::new("a", DataType::Int, true),
            ColumnDef::new("v", DataType::Int, true),
        ],
    )
}

/// Distinct text per storm member (distinct query ids); each selects a
/// different share of every fragment.
fn storm_sql(i: usize, rows_per_endsystem: usize) -> String {
    let threshold = 1 + (i * 7 + 13) % (rows_per_endsystem - 1);
    format!("SELECT SUM(v) FROM T WHERE a < {threshold}")
}

pub fn run(rep: &mut Rep, seed: u64, size: Size) -> Outcome {
    let sc = scenario(size);
    let tables: Vec<Table> = rep.stage(Stage::WorkloadGen, || {
        (0..sc.endsystems as u64)
            .map(|node| {
                let mut t = Table::new(schema());
                for r in 0..sc.rows_per_endsystem as u64 {
                    // `a` is a seed-dependent permutation-free draw, so
                    // how many rows a threshold selects differs per
                    // endsystem and histograms only estimate it.
                    let draw = mix(mix(seed ^ (node << 20)) ^ r);
                    let a = (draw % sc.rows_per_endsystem as u64) as i64;
                    let v = ((draw >> 32) % 10_000) as i64;
                    t.insert(vec![Value::Int(a), Value::Int(v)])
                        .expect("row matches schema");
                }
                t
            })
            .collect()
    });
    let provider = rep.stage(Stage::StoreSummary, || LiveTables::new(tables));
    // Ground truth per query, computed centrally over every fragment.
    let sqls: Vec<String> = (0..sc.queries)
        .map(|i| storm_sql(i, sc.rows_per_endsystem))
        .collect();
    let truths: Vec<Truth> = rep.stage(Stage::StoreExecute, || {
        sqls.iter()
            .map(|sql| {
                let (_, bound) = provider.bind(sql, 0).expect("storm queries bind");
                let mut population = Aggregate::empty(bound.agg);
                for node in 0..sc.endsystems {
                    population.merge(
                        &execute(&bound, provider.table(node)).expect("storm queries execute"),
                    );
                }
                Truth {
                    population,
                    required_rows: population.rows,
                }
            })
            .collect()
    });
    let cfg = SeaweedConfig {
        seed,
        storm: Some(StormConfig {
            max_in_flight: 64,
            quantum_rows: QUANTUM_ROWS,
            quantum: Duration::from_millis(20),
            max_batch: 8,
        }),
        ..SeaweedConfig::default()
    };
    if rep.traced {
        simulate(
            rep,
            seed,
            sc,
            TimedProvider::new(provider),
            cfg,
            &sqls,
            &truths,
        )
    } else {
        simulate(rep, seed, sc, provider, cfg, &sqls, &truths)
    }
}

fn simulate<P: StoreProbe>(
    rep: &mut Rep,
    seed: u64,
    sc: Scenario,
    provider: P,
    cfg: SeaweedConfig,
    sqls: &[String],
    truths: &[Truth],
) -> Outcome {
    let n = sc.endsystems;
    let schema = schema();
    let (mut sw, mut eng) = build_stack(rep, n, seed, provider, cfg);
    // Everyone up within the first simulated minute.
    let step = (60_000_000 / n as u64).max(1);
    rep.stage(Stage::Replay, || {
        for i in 0..n {
            eng.schedule_up(Time(1 + i as u64 * step), NodeIdx(i as u32));
        }
    });
    let rss_after_setup_mb = rss_mb("VmRSS:");

    let mut ledger = rep.start_run();
    if rep.setup_only {
        return Outcome::blank(eng.num_nodes(), rep.setup, rss_after_setup_mb);
    }
    let mut events = drive_sliced(
        rep,
        &mut sw,
        &mut eng,
        BURST_AT,
        QUIET_SLICE,
        ledger.as_mut(),
    );

    let ttl = Duration::from_hours(40);
    let mut tickets: BTreeMap<u64, usize> = BTreeMap::new();
    let mut live: Vec<(usize, QueryHandle)> = Vec::new();
    for (i, sql) in sqls.iter().enumerate() {
        let origin = NodeIdx(((i * 31) % n) as u32);
        // Admission starts a dissemination (or parks the query), and
        // retirement below tears one down and admits the next: both are
        // charged to `core.disseminate`.
        let submission = charged(&mut sw, ledger.as_mut(), Class::CoreDisseminate, |sw| {
            sw.submit_query(&mut eng, origin, sql, ttl, &schema)
        });
        match submission.expect("storm submission") {
            Submission::Admitted(h) => live.push((i, h)),
            Submission::Queued(t) => {
                tickets.insert(t, i);
            }
        }
    }

    // Drive in slices; a completed query is harvested and retired so
    // that parked submissions are admitted into its slot.
    let mut outcomes: Vec<Option<QueryOutcome>> = vec![None; sc.queries];
    let mut horizon = BURST_AT;
    while outcomes.iter().any(Option::is_none) && horizon < GIVE_UP {
        horizon += HARVEST_EVERY;
        events += drive_sliced(
            rep,
            &mut sw,
            &mut eng,
            horizon,
            STORM_SLICE,
            ledger.as_mut(),
        );
        live.retain(|&(i, h)| {
            let done = sw.query(h).rows() >= truths[i].population.rows;
            if done {
                outcomes[i] = Some(query_outcome(
                    sw.query(h),
                    sw.timeline(h),
                    &truths[i],
                    BURST_AT,
                    horizon,
                ));
                charged(&mut sw, ledger.as_mut(), Class::CoreDisseminate, |sw| {
                    sw.retire_query(&mut eng, h);
                });
                // A retirement admits a parked query, tens of
                // milliseconds each: a slice of its own.
                rep.probe_point();
            }
            !done
        });
        for (t, h) in sw.drain_admissions() {
            live.push((tickets.remove(&t).expect("ticket maps to a query"), h));
        }
    }
    let end = Instant::now();

    // A query that never completed (stall) is judged as it stands.
    for (i, h) in live {
        outcomes[i] = Some(query_outcome(
            sw.query(h),
            sw.timeline(h),
            &truths[i],
            BURST_AT,
            horizon,
        ));
    }
    let stalled = outcomes.iter().filter(|o| o.is_none()).count();
    let most_rows = truths.iter().map(|t| t.population.rows).max().unwrap_or(0);
    let mut out = finish_stack(
        rep,
        &sw,
        eng,
        most_rows,
        Ran {
            oracle_gates: true,
            events,
            ledger,
            end,
            rss_after_setup_mb,
        },
    );
    if stalled > 0 {
        out.violations
            .push(format!("{stalled} storm submissions were never admitted"));
    }
    out.queries = outcomes.into_iter().flatten().collect();
    out
}
