//! `farsite_steady` and `gnutella_churn`: the full stack replaying an
//! availability trace over a pre-computed Anemone data plane, with the
//! paper's four queries injected on a fixed simulated-time schedule.
//!
//! The two share every line below and differ only in the trace: Farsite
//! (availability ≈ 0.81, few departures) keeps `overlay` and
//! `core.metadata` on their steady heartbeat/push paths; Gnutella (23×
//! the departure rate) drives the same layers through join, repair and
//! replica-set-change paths instead.

use std::time::Instant;

use seaweed_availability::{AvailabilityTrace, FarsiteConfig, GnutellaConfig};
use seaweed_core::{HedgeConfig, Precomputed, QueryHandle, SeaweedConfig, SeaweedEngine};
use seaweed_sim::NodeIdx;
use seaweed_store::exec::{count_matching, execute};
use seaweed_store::{Aggregate, BoundQuery, DataSummary, Query};
use seaweed_types::{Duration, Time};
use seaweed_workload::{flow_schema, paper_queries, AnemoneConfig};

use super::{build_stack, drive_sliced, finish_stack, rss_mb, Ran, Rep, Size};
use crate::classify::Class;
use crate::drive::{charged, StoreProbe};
use crate::outcome::{query_outcome, Outcome, Stage, Truth};
use crate::timed::TimedProvider;

#[derive(Debug, Clone, Copy)]
pub enum TraceKind {
    Farsite,
    Gnutella,
}

#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    pub kind: TraceKind,
    pub endsystems: usize,
    pub horizon: Duration,
    /// First injection; the system has joined, pushed metadata and
    /// learnt availability models by then.
    pub first_injection: Duration,
    pub injection_every: Duration,
    pub injections: u32,
    /// Hours of Anemone flow records each endsystem holds.
    pub data_hours: u64,
    /// Whether a `ChaosOracle` finding on the final state fails the run.
    pub oracle_gates: bool,
}

#[must_use]
pub fn farsite(size: Size) -> Scenario {
    match size {
        Size::Full => Scenario {
            kind: TraceKind::Farsite,
            endsystems: 2_000,
            horizon: Duration::from_hours(60),
            first_injection: Duration::from_hours(24),
            injection_every: Duration::from_mins(30),
            injections: 48,
            data_hours: 24,
            oracle_gates: true,
        },
        Size::Smoke => Scenario {
            kind: TraceKind::Farsite,
            endsystems: 150,
            horizon: Duration::from_hours(14),
            first_injection: Duration::from_hours(6),
            injection_every: Duration::from_hours(1),
            injections: 4,
            data_hours: 6,
            oracle_gates: true,
        },
    }
}

/// At this churn the seed code itself trips `ChaosOracle` on about one
/// seed in five: an origin's row count steps back after an aggregation
/// vertex loses every replica within one repair interval, and a departed
/// node keeps a vertex-membership entry the vertex no longer lists.
/// ROADMAP item 5 owns both; until then the findings are counted
/// (`core.oracle_findings`) and printed here, and fail the run only on
/// the workloads the parent commit passes.
#[must_use]
pub fn gnutella(size: Size) -> Scenario {
    match size {
        Size::Full => Scenario {
            kind: TraceKind::Gnutella,
            endsystems: 3_000,
            horizon: Duration::from_hours(30),
            first_injection: Duration::from_hours(12),
            injection_every: Duration::from_mins(15),
            injections: 48,
            data_hours: 24,
            oracle_gates: false,
        },
        Size::Smoke => Scenario {
            kind: TraceKind::Gnutella,
            endsystems: 150,
            horizon: Duration::from_hours(10),
            first_injection: Duration::from_hours(4),
            injection_every: Duration::from_hours(1),
            injections: 4,
            data_hours: 6,
            oracle_gates: false,
        },
    }
}

/// Simulated time per slice of the timed phase: 40–80 ms of host time.
const SLICE: Duration = Duration(10 * Duration::MINUTE.0);

pub fn run(rep: &mut Rep, seed: u64, sc: Scenario) -> Outcome {
    let n = sc.endsystems;
    let trace: AvailabilityTrace = rep.stage(Stage::Trace, || match sc.kind {
        TraceKind::Farsite => {
            FarsiteConfig {
                num_endsystems: n,
                horizon: sc.horizon,
                ..FarsiteConfig::default()
            }
            .generate(seed)
            .0
        }
        TraceKind::Gnutella => GnutellaConfig {
            num_endsystems: n,
            horizon: sc.horizon,
            ..GnutellaConfig::default()
        }
        .generate(seed),
    });

    // Data plane: generate each endsystem's fragment, summarise it,
    // answer the four queries on it, drop it (the paper's own
    // pre-computation, §4.3). The central aggregate over every fragment
    // is the ground truth the origin's answer is checked against.
    let schema = flow_schema();
    // One text per injection: the paper's four queries in rotation, each
    // with a conjunct every row satisfies, so that the injections have
    // distinct query ids — and with them distinct dissemination roots
    // and aggregation trees — as different users' queries would.
    let sqls: Vec<String> = (0..sc.injections as usize)
        .map(|i| {
            let base = paper_queries()[i % 4].sql;
            format!("{base} AND Bytes >= {}", i / 4)
        })
        .collect();
    let bound: Vec<BoundQuery> = sqls
        .iter()
        .map(|sql| {
            Query::parse(sql)
                .and_then(|q| q.bind(&schema, 0))
                .expect("the paper's queries parse and bind")
        })
        .collect();
    let anemone = AnemoneConfig {
        horizon: Duration::from_hours(sc.data_hours),
        ..AnemoneConfig::default()
    };
    let mut provider = Precomputed::new(n);
    let mut population: Vec<Aggregate> = bound.iter().map(|b| Aggregate::empty(b.agg)).collect();
    for node in 0..n {
        let table = rep.stage(Stage::WorkloadGen, || {
            anemone.generate_flow_table(seed, node, &[])
        });
        let summary = rep.stage(Stage::StoreSummary, || DataSummary::build(&table));
        let answers: Vec<_> = rep.stage(Stage::StoreExecute, || {
            bound
                .iter()
                .map(|q| {
                    let agg = execute(q, &table).expect("query executes on its own schema");
                    (
                        q.clone(),
                        summary.estimate_rows(q),
                        agg,
                        count_matching(q, &table),
                    )
                })
                .collect()
        });
        for (total, (_, _, agg, _)) in population.iter_mut().zip(&answers) {
            total.merge(agg);
        }
        provider.record(node, summary.wire_size(), answers);
    }

    if rep.traced {
        simulate(
            rep,
            seed,
            &sc,
            &trace,
            TimedProvider::new(provider),
            &sqls,
            &population,
        )
    } else {
        simulate(rep, seed, &sc, &trace, provider, &sqls, &population)
    }
}

/// The user's machine: an endsystem that is up now and, of those, the
/// first (rotating from `start`) that stays up to the horizon — else the
/// one that stays up longest. A user who queries and at once switches
/// the machine off sees no predictor however well the system works.
fn pick_origin(eng: &SeaweedEngine, trace: &AvailabilityTrace, start: usize, now: Time) -> NodeIdx {
    let up: Vec<NodeIdx> = eng.up_nodes().collect();
    assert!(!up.is_empty(), "an endsystem is up at every injection");
    let session_end = |n: NodeIdx| {
        trace
            .intervals(n.idx())
            .iter()
            .find(|&&(from, to)| from <= now && now < to)
            .map_or(now, |&(_, to)| to)
    };
    let rotated = || (0..up.len()).map(|k| up[(start + k) % up.len()]);
    rotated()
        .find(|&n| session_end(n) >= trace.horizon())
        .or_else(|| rotated().max_by_key(|&n| session_end(n)))
        .expect("`up` is not empty")
}

fn simulate<P: StoreProbe>(
    rep: &mut Rep,
    seed: u64,
    sc: &Scenario,
    trace: &AvailabilityTrace,
    provider: P,
    sqls: &[String],
    population: &[Aggregate],
) -> Outcome {
    let schema = flow_schema();
    // Tail tolerance on: a query's kickoff is one unretried message, and
    // under churn about one in five hundred is routed to an endsystem
    // that has just left — no predictor, ever. The origin's watchdog
    // re-sends it, as a user would the query.
    let cfg = SeaweedConfig {
        seed,
        hedge: Some(HedgeConfig::default()),
        ..SeaweedConfig::default()
    };
    let horizon = Time::ZERO + sc.horizon;
    let (mut sw, mut eng) = build_stack(rep, sc.endsystems, seed, provider, cfg);
    rep.stage(Stage::Replay, || trace.replay_into(&mut eng));
    let rss_after_setup_mb = rss_mb("VmRSS:");

    let mut ledger = rep.start_run();
    if rep.setup_only {
        return Outcome::blank(eng.num_nodes(), rep.setup, rss_after_setup_mb);
    }
    let mut events = 0;
    let mut handles: Vec<(usize, QueryHandle, Time)> = Vec::new();
    for i in 0..sc.injections {
        let at = Time::ZERO + sc.first_injection + Duration(sc.injection_every.0 * u64::from(i));
        events += drive_sliced(rep, &mut sw, &mut eng, at, SLICE, ledger.as_mut());
        let origin = pick_origin(&eng, trace, i as usize * 37, at);
        let qi = i as usize;
        let ttl = horizon.saturating_since(at) + Duration::HOUR;
        // Injection starts the dissemination, so it is charged there.
        let h = charged(&mut sw, ledger.as_mut(), Class::CoreDisseminate, |sw| {
            sw.inject_query(&mut eng, origin, &sqls[qi], ttl, &schema)
        })
        .expect("the paper's queries inject");
        handles.push((qi, h, at));
    }
    events += drive_sliced(rep, &mut sw, &mut eng, horizon, SLICE, ledger.as_mut());
    let end = Instant::now();

    let queries = handles
        .iter()
        .map(|&(qi, h, at)| {
            let truth = Truth {
                population: population[qi],
                required_rows: 0,
            };
            query_outcome(sw.query(h), sw.timeline(h), &truth, at, horizon)
        })
        .collect();
    let most_rows = population.iter().map(|a| a.rows).max().unwrap_or(0);
    let mut out = finish_stack(
        rep,
        &sw,
        eng,
        most_rows,
        Ran {
            oracle_gates: sc.oracle_gates,
            events,
            ledger,
            end,
            rss_after_setup_mb,
        },
    );
    out.queries = queries;
    out
}
