//! Storm 01: concurrent multi-query engine under query storms.
//!
//! Sweeps K ∈ {1, 10, 100, 1,000, 10,000} one-shot aggregation queries
//! over a fixed N = 16,000-endsystem CorpNet deployment. Queries are
//! submitted in one burst through storm-mode admission control (64
//! in-flight budget); completed queries are retired so parked
//! submissions promote in ticket order, recycling registry slots behind
//! generation bumps. Every endsystem runs the fair scan scheduler:
//! contended local executions are sliced into preemption quanta and
//! co-finishing queries share one table pass.
//!
//! Reported per K: throughput (queries/simulated-second and wall
//! events/second), p50/p99 delay from admission to 0.9 completeness,
//! fairness spread (max/min delay-to-full-completeness across all K
//! queries), and the storm counters. Every query must reach
//! completeness 1.0 and the chaos oracle must stay clean throughout.
//!
//! The K = 1 point additionally replays the identical run with storm
//! mode disabled and asserts the two event logs are **byte-identical**
//! (same FNV-1a fingerprint, length, rows): the storm machinery may
//! only change behaviour when queries actually contend.
//!
//! Artifacts:
//!
//! * `storm01.csv` — simulation-deterministic columns only; byte-stable
//!   for a fixed `--seed` (CI smoke in `scripts/check.sh`). A host
//!   recording run by name, not part of `all`; no copy is checked in.
//! * `storm01.json` (`--json`; beside the CSV by default, gitignored) —
//!   adds wall-clock numbers.

use std::collections::HashMap;

use crate::report::{per_second, write_report, Fields, Value};
use crate::{Args, OutDir, OutTable};
use seaweed_core::{
    boot_staggered, build_world, flag_fixture, ChaosOracle, LiveTables, Seaweed, SeaweedConfig,
    SeaweedEngine, StormConfig, Submission,
};
use seaweed_overlay::OverlayConfig;
use seaweed_sim::{CorpNetTopology, EventLog, NodeIdx, SimConfig};
use seaweed_types::{Duration, Time};

/// Rows per endsystem fragment; with `QUANTUM_ROWS` below, a contended
/// scan takes two preemption quanta.
const ROWS_PER_NODE: usize = 4;
const QUANTUM_ROWS: u64 = 2;
/// Submission burst time: joins plus one metadata-push cycle first.
const T0_SECS: u64 = 900;

/// Distinct query text per storm member (distinct query ids), identical
/// ground truth: every row has `flag = 1`, so every predicate matches
/// the full population.
fn storm_sql(i: usize) -> String {
    format!("SELECT SUM(v) FROM T WHERE flag < {}", 2 + i as i64)
}

/// Per-query record harvested at completion, before retirement recycles
/// the slot (and with it the timeline).
#[derive(Clone, Copy)]
struct QueryRec {
    /// Admission (injection) time.
    injected: Time,
    /// Admission → 0.9 actual completeness.
    d90: Duration,
    /// Admission → full completeness.
    d100: Duration,
}

struct Point {
    k: usize,
    wall_s: f64,
    events: u64,
    messages: u64,
    tx_bytes: [u64; 3],
    storm_admitted: u64,
    storm_queued: u64,
    stale_handle_drops: u64,
    scan_quanta: u64,
    shared_scan_batches: u64,
    shared_scan_queries: u64,
    p50_d90: Duration,
    p99_d90: Duration,
    min_d100: Duration,
    max_d100: Duration,
    /// max/min delay-to-full-completeness across the K queries.
    fairness_spread: f64,
    /// Simulated seconds from the submission burst to the last
    /// completion.
    sim_span_s: f64,
    log: Option<(u64, u64)>,
    rows_each: u64,
}

#[allow(clippy::too_many_lines)]
fn run_point(
    n: usize,
    k: usize,
    seed: u64,
    storm: Option<StormConfig>,
    fingerprint: bool,
) -> Point {
    let (tables, schema) = flag_fixture(0..n as u32, ROWS_PER_NODE);
    let total_rows = (n * ROWS_PER_NODE) as u64;
    let (mut eng, mut sw) = build_world(
        Box::new(CorpNetTopology::new(n, seed)),
        seed,
        SimConfig::default(),
        OverlayConfig::default(),
        SeaweedConfig {
            storm,
            ..Default::default()
        },
        tables,
    );
    boot_staggered(&mut eng, Duration((60_000_000 / n as u64).max(1)));

    #[expect(
        clippy::disallowed_methods,
        reason = "host-side benchmark timing for the JSON twin, never feeds simulated time"
    )]
    let t0 = std::time::Instant::now();
    let mut events = 0u64;
    // Only the K=1 byte-identity check pays for the fingerprint.
    let mut log = fingerprint.then(EventLog::new);
    let mut drive = |sw: &mut Seaweed<LiveTables>, eng: &mut SeaweedEngine, horizon: Time| {
        while let Some((t, ev)) = eng.next_event_before(horizon) {
            events += 1;
            if let Some(log) = log.as_mut() {
                log.add(t, &ev);
            }
            sw.dispatch(eng, ev);
        }
    };
    drive(&mut sw, &mut eng, Time::from_secs(T0_SECS));

    // The storm burst: all K submitted back-to-back. Over budget, the
    // tail parks in the admission queue.
    let ttl = Duration::from_hours(40);
    let mut ticket_to_query: HashMap<u64, usize> = HashMap::new();
    let mut live: Vec<(usize, u32)> = Vec::new();
    for i in 0..k {
        let origin = NodeIdx((i % n) as u32);
        match sw
            .submit_query(&mut eng, origin, &storm_sql(i), ttl, &schema)
            .expect("storm submission")
        {
            Submission::Admitted(h) => live.push((i, h)),
            Submission::Queued(t) => {
                ticket_to_query.insert(t, i);
            }
        }
    }

    // Drive in slices; harvest + retire completed queries each slice so
    // parked submissions promote. The oracle runs periodically and at
    // the end (it walks all per-query state, too heavy for every
    // slice at this scale).
    let oracle = ChaosOracle::new(total_rows);
    let mut recs: Vec<Option<QueryRec>> = vec![None; k];
    let mut completed = 0usize;
    let mut horizon = T0_SECS;
    let mut slices = 0u64;
    while completed < k {
        horizon += 10;
        drive(&mut sw, &mut eng, Time::from_secs(horizon));
        slices += 1;
        let mut still = Vec::with_capacity(live.len());
        for (i, h) in live.drain(..) {
            if sw.query(h).rows() >= total_rows {
                let tl = sw.timeline(h);
                recs[i] = Some(QueryRec {
                    injected: tl.injected,
                    d90: tl
                        .time_to_completeness(0.9, total_rows as f64)
                        .expect("complete query has d90"),
                    d100: tl
                        .time_to_completeness(1.0, total_rows as f64)
                        .expect("complete query has d100"),
                });
                sw.retire_query(&mut eng, h);
                completed += 1;
            } else {
                still.push((i, h));
            }
        }
        live = still;
        for (t, h) in sw.drain_admissions() {
            let i = ticket_to_query.remove(&t).expect("ticket maps to a query");
            live.push((i, h));
        }
        if slices.is_multiple_of(32) {
            let v = oracle.check(&sw, &eng);
            assert!(
                v.is_empty(),
                "oracle violations at {horizon}s:\n  {}",
                v.join("\n  ")
            );
        }
        assert!(
            horizon < T0_SECS + 500_000,
            "storm stalled: {completed}/{k} complete after {horizon}s"
        );
    }
    let v = oracle.check(&sw, &eng);
    assert!(
        v.is_empty(),
        "final oracle violations:\n  {}",
        v.join("\n  ")
    );
    let wall_s = t0.elapsed().as_secs_f64();

    let recs: Vec<QueryRec> = recs
        .into_iter()
        .map(|r| r.expect("every query completed"))
        .collect();
    let mut d90s: Vec<Duration> = recs.iter().map(|r| r.d90).collect();
    d90s.sort_unstable();
    let p50_d90 = d90s[d90s.len() / 2];
    let p99_d90 = d90s[((d90s.len() * 99) / 100).min(d90s.len() - 1)];
    let min_d100 = recs.iter().map(|r| r.d100).min().expect("k >= 1");
    let max_d100 = recs.iter().map(|r| r.d100).max().expect("k >= 1");
    let last_done = recs
        .iter()
        .map(|r| r.injected + r.d100)
        .max()
        .expect("k >= 1");
    let sim_span_s = last_done
        .saturating_since(Time::from_secs(T0_SECS))
        .as_secs_f64();
    let fairness_spread = max_d100.as_micros() as f64 / (min_d100.as_micros() as f64).max(1.0);

    let stats = sw.stats;
    let messages = eng.messages_sent;
    let report = eng.finish();
    Point {
        k,
        wall_s,
        events,
        messages,
        tx_bytes: report.total_tx,
        storm_admitted: stats.storm_admitted,
        storm_queued: stats.storm_queued,
        stale_handle_drops: stats.stale_handle_drops,
        scan_quanta: stats.scan_quanta,
        shared_scan_batches: stats.shared_scan_batches,
        shared_scan_queries: stats.shared_scan_queries,
        p50_d90,
        p99_d90,
        min_d100,
        max_d100,
        fairness_spread,
        sim_span_s,
        log: log.map(|l| (l.hash(), l.events())),
        rows_each: total_rows,
    }
}

fn json_twin(path: &str, seed: u64, n: usize, byte_identical: bool, points: &[Point]) {
    let header: Fields = vec![
        ("bench", "storm01_query_storm".into()),
        ("seed", seed.into()),
        ("n", n.into()),
        ("k1_byte_identical", byte_identical.into()),
    ];
    let points: Vec<Fields> = points
        .iter()
        .map(|p| {
            vec![
                ("k", p.k.into()),
                ("wall_s", Value::Fixed(p.wall_s, 3)),
                ("events", p.events.into()),
                (
                    "events_per_s",
                    Value::Fixed(per_second(p.events, p.wall_s), 0),
                ),
                (
                    "queries_per_sim_s",
                    Value::Fixed(p.k as f64 / p.sim_span_s.max(1e-9), 3),
                ),
                ("p50_d90_s", Value::Fixed(p.p50_d90.as_secs_f64(), 3)),
                ("p99_d90_s", Value::Fixed(p.p99_d90.as_secs_f64(), 3)),
                ("fairness_spread", Value::Fixed(p.fairness_spread, 3)),
                ("shared_scan_batches", p.shared_scan_batches.into()),
            ]
        })
        .collect();
    write_report(path, &header, &points);
}

pub fn run(args: &Args, out: &OutDir) {
    let n = args.get("n", 16_000usize);
    let max_k = args.get("max-k", 10_000usize);
    let seed = args.get("seed", 42u64);
    let json = args.get_str("json", &out.path("storm01.json"));

    let ks: Vec<usize> = [1usize, 10, 100, 1_000, 10_000]
        .into_iter()
        .filter(|&k| k <= max_k)
        .collect();
    let storm = StormConfig {
        max_in_flight: 64,
        quantum_rows: QUANTUM_ROWS,
        quantum: Duration::from_millis(20),
        max_batch: 8,
    };
    println!("Storm 01: N={n}, K in {ks:?}, seed {seed}");

    // K=1 byte-identity gate: the storm run and the baseline
    // (storm-off) run must produce identical event logs.
    let base = run_point(n, 1, seed, None, true);
    let mut points = Vec::new();
    let mut byte_identical = false;
    for &k in &ks {
        let p = run_point(n, k, seed, Some(storm.clone()), k == 1);
        if k == 1 {
            let (bh, bl) = base.log.expect("baseline fingerprinted");
            let (sh, sl) = p.log.expect("k=1 fingerprinted");
            assert_eq!(
                (bh, bl, base.rows_each),
                (sh, sl, p.rows_each),
                "K=1 storm run diverged from the storm-off baseline"
            );
            byte_identical = true;
            println!("  K=1 byte-identity: OK (fingerprint {bh:016x}, {bl} events)");
        }
        println!(
            "  K={:>6}: {:>10} events, p50 d90 {:>7.2}s, p99 d90 {:>7.2}s, spread {:>5.2}x, \
             {:>6.1}s wall",
            p.k,
            p.events,
            p.p50_d90.as_secs_f64(),
            p.p99_d90.as_secs_f64(),
            p.fairness_spread,
            p.wall_s,
        );
        points.push(p);
    }

    // The CSV carries only simulation-deterministic columns: rerunning
    // with the same seed must reproduce it byte-for-byte on any machine.
    let rows: Vec<Vec<f64>> = points
        .iter()
        .map(|p| {
            vec![
                p.k as f64,
                p.events as f64,
                p.messages as f64,
                p.tx_bytes[0] as f64,
                p.tx_bytes[1] as f64,
                p.tx_bytes[2] as f64,
                p.storm_admitted as f64,
                p.storm_queued as f64,
                p.stale_handle_drops as f64,
                p.scan_quanta as f64,
                p.shared_scan_batches as f64,
                p.shared_scan_queries as f64,
                p.p50_d90.as_micros() as f64,
                p.p99_d90.as_micros() as f64,
                p.min_d100.as_micros() as f64,
                p.max_d100.as_micros() as f64,
                p.rows_each as f64,
            ]
        })
        .collect();
    out.write_csv(
        "storm01.csv",
        &[
            "k",
            "events",
            "messages",
            "tx_overlay_bytes",
            "tx_maintenance_bytes",
            "tx_query_bytes",
            "storm_admitted",
            "storm_queued",
            "stale_handle_drops",
            "scan_quanta",
            "shared_scan_batches",
            "shared_scan_queries",
            "p50_d90_us",
            "p99_d90_us",
            "min_d100_us",
            "max_d100_us",
            "rows_per_query",
        ],
        &rows,
    );
    json_twin(&json, seed, n, byte_identical, &points);

    let mut t = OutTable::new(&[
        "k",
        "events",
        "q/sim_s",
        "p50_d90_s",
        "p99_d90_s",
        "spread",
        "wall_s",
    ]);
    for p in &points {
        t.row(vec![
            p.k.to_string(),
            p.events.to_string(),
            format!("{:.2}", p.k as f64 / p.sim_span_s.max(1e-9)),
            format!("{:.2}", p.p50_d90.as_secs_f64()),
            format!("{:.2}", p.p99_d90.as_secs_f64()),
            format!("{:.2}", p.fairness_spread),
            format!("{:.1}", p.wall_s),
        ]);
    }
    t.print();
}
