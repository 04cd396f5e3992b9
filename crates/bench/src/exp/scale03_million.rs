//! Scale 03: determinism-preserving parallel DES toward 1M endsystems.
//!
//! `scale02` ran the paper's 51,663-endsystem Farsite population through
//! one single-threaded event wheel. This sweep runs the same end-to-end
//! workload **federated over the partitioned conservative executor**
//! ([`seaweed_sim::exec`]): endsystems are sharded by CorpNet site into
//! per-partition engines, each hosting an independent Seaweed overlay;
//! all shards inject the same SUM query at the same simulated instant
//! and the root partition merges per-shard row counts over the
//! executor's control channel ([`seaweed_core::federation`]).
//!
//! Every point runs under [`ExecKind::Serial`] and/or
//! [`ExecKind::Parallel`] (`--mode both|serial|parallel`). The two
//! modes must agree on **every deterministic counter** — events,
//! messages, per-class bytes, protocol stats, rows — which `--mode
//! both` asserts field-by-field; the CI smoke additionally `cmp`s the
//! CSVs of a serial-only and a parallel-only run. Each shard must end
//! **clean** ([`ChaosOracle`]) and the federation **complete**: root
//! rows + merged remote rows == N.
//!
//! Artifacts, same split as scale02:
//!
//! * `scale03.csv` — deterministic columns only (byte-stable
//!   across machines, thread counts and exec modes for a fixed seed).
//! * `BENCH_scale03.json` — adds wall seconds, events/s, peak RSS and
//!   the worker count per mode: the machine-dependent numbers backing
//!   the EXPERIMENTS.md entry. The ≥3× events/s target needs ≥8 cores;
//!   single-core hosts still verify determinism, just without speedup.

use std::sync::Arc;

use crate::counters::RunCounters;
use crate::report::{peak_rss_bytes, per_second, write_report, Fields, Value};
use crate::{Args, OutDir, OutTable};
use seaweed_core::{
    build_world, flag_fixture, ChaosOracle, FedSchedule, FedShard, SeaweedConfig, SeaweedEngine,
};
use seaweed_overlay::OverlayConfig;
use seaweed_sim::exec::{partition_seed, run_partitioned, ExecConfig, ExecKind};
use seaweed_sim::{CorpNetTopology, NodeIdx, SimConfig, SubTopology, Topology};
use seaweed_types::{Duration, Time};

/// The Farsite trace population (paper §4) — scale02's headline point.
const FARSITE_N: usize = 51_663;
/// First checked-in beyond-Farsite point (5× the trace, ≥250k).
const QUARTER_M: usize = 258_315;
/// The north-star population; `--million 1` adds it to the ladder.
const MILLION: usize = 1_000_000;

/// Deterministic per-shard outcome; summed into a [`Point`].
struct ShardOut {
    run: RunCounters,
    local_rows: u64,
    merged_rows: u64,
    reports_received: u32,
}

/// One (N, mode) run. Every field except `wall_s`/`peak_rss`/`workers`
/// is identical between serial and parallel execution.
#[derive(Clone)]
struct Point {
    n: usize,
    parts: usize,
    workers: usize,
    kind: ExecKind,
    wall_s: f64,
    peak_rss: u64,
    run: RunCounters,
    rows: u64,
    lookahead_us: u64,
}

fn run_point(n: usize, parts: usize, workers: usize, seed: u64, kind: ExecKind) -> Point {
    let global = Arc::new(CorpNetTopology::new(n, seed));
    let pmap = global
        .partition_map(parts)
        .unwrap_or_else(|| panic!("no {parts}-way site partition at N={n}"));
    let schedule = FedSchedule {
        inject_at: Time::from_secs(900),
        report_at: Time::from_secs(1750),
    };
    let cfg = ExecConfig {
        kind,
        partitions: parts,
        workers,
    };
    // Same regime as scale02: every endsystem up within the first
    // simulated minute (N-independent per-endsystem workload), one full
    // metadata-push cycle before injection, query gets the second
    // half-hour.
    let step = (60_000_000 / n as u64).max(1);
    let build = |p: usize| {
        let members = pmap.members[p].clone();
        let shard_seed = partition_seed(seed, p);
        // Each endsystem's row carries its global number.
        let (tables, schema) = flag_fixture(members.iter().copied(), 1);
        let (mut eng, sw) = build_world(
            Box::new(SubTopology::new(global.clone(), members.clone())),
            shard_seed,
            SimConfig::default(),
            OverlayConfig::default(),
            SeaweedConfig::default(),
            tables,
        );
        for (l, &g) in members.iter().enumerate() {
            eng.schedule_up(Time(1 + u64::from(g) * step), NodeIdx(l as u32));
        }
        let app = FedShard::new(
            sw,
            p as u32,
            parts as u32,
            pmap.lookahead,
            schedule,
            "SELECT SUM(v) FROM T WHERE flag = 1",
            Duration::from_hours(1),
            schema,
        );
        (eng, app)
    };
    let finish = |p: usize, eng: SeaweedEngine, app: FedShard| {
        // Each shard must end clean and locally complete — the federated
        // point is only a result if every shard is.
        let local_n = pmap.members[p].len() as u64;
        let rows = app.local_rows();
        assert_eq!(rows, local_n, "shard {p} completeness must be 1.0 at N={n}");
        ChaosOracle::new(local_n).assert_clean(&app.sw, &eng);
        ShardOut {
            run: RunCounters::harvest(app.events, &app.sw, eng),
            local_rows: rows,
            merged_rows: app.merged_rows,
            reports_received: app.reports_received,
        }
    };

    #[expect(
        clippy::disallowed_methods,
        reason = "host-side benchmark timing for BENCH_scale03.json, never feeds simulated time"
    )]
    let t0 = std::time::Instant::now();
    let shards = run_partitioned(&cfg, pmap.lookahead, Time::from_secs(1800), build, finish);
    let wall_s = t0.elapsed().as_secs_f64();

    // Federated completeness: the root saw its own rows plus a report
    // from every other shard, and the union covers the population.
    assert_eq!(shards[0].reports_received, parts as u32 - 1);
    let rows = shards[0].local_rows + shards[0].merged_rows;
    assert_eq!(
        rows, n as u64,
        "federated completeness must be 1.0 at N={n}"
    );

    Point {
        n,
        parts,
        workers: cfg.effective_workers(),
        kind,
        wall_s,
        peak_rss: peak_rss_bytes(),
        run: shards.iter().map(|s| s.run).sum(),
        rows,
        lookahead_us: pmap.lookahead.as_micros(),
    }
}

/// The deterministic face of a point — everything `--mode both` pins
/// between serial and parallel execution.
fn deterministic_row(p: &Point) -> Vec<f64> {
    let mut row = vec![p.n as f64, p.parts as f64, p.lookahead_us as f64];
    row.extend(p.run.columns());
    row.extend([p.rows as f64, p.rows as f64 / p.n as f64]);
    row
}

fn mode_name(kind: ExecKind) -> &'static str {
    match kind {
        ExecKind::Serial => "serial",
        ExecKind::Parallel => "parallel",
    }
}

fn json_twin(path: &str, seed: u64, points: &[Point]) {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let header: Fields = vec![
        ("bench", "scale03_million".into()),
        ("seed", seed.into()),
        ("host_cores", cores.into()),
    ];
    let points: Vec<Fields> = points
        .iter()
        .map(|p| {
            vec![
                ("n", p.n.into()),
                ("mode", mode_name(p.kind).into()),
                ("parts", p.parts.into()),
                ("workers", p.workers.into()),
                ("lookahead_us", p.lookahead_us.into()),
                ("wall_s", Value::Fixed(p.wall_s, 3)),
                ("events", p.run.events.into()),
                (
                    "events_per_s",
                    Value::Fixed(per_second(p.run.events, p.wall_s), 0),
                ),
                ("peak_rss_bytes", p.peak_rss.into()),
                ("messages", p.run.messages.into()),
                ("completeness", Value::Fixed(p.rows as f64 / p.n as f64, 3)),
            ]
        })
        .collect();
    write_report(path, &header, &points);
}

pub fn run(args: &Args, out: &OutDir) {
    // `--n` runs a single population (CI smoke); 0 = the default ladder.
    let n_override = args.get("n", 0usize);
    let parts = args.get("parts", 8usize);
    let workers = args.get("workers", 0usize); // 0 = auto (thread budget)
    let million = args.get("million", 0usize) != 0;
    let seed = args.get("seed", 42u64);
    let mode = args.get_str("mode", "both");
    let json = args.get_str("json", "BENCH_scale03.json");

    let sizes: Vec<usize> = if n_override > 0 {
        vec![n_override]
    } else {
        let mut s = vec![FARSITE_N, QUARTER_M];
        if million {
            s.push(MILLION);
        }
        s
    };
    let kinds: Vec<ExecKind> = match mode.as_str() {
        "serial" => vec![ExecKind::Serial],
        "parallel" => vec![ExecKind::Parallel],
        "both" => vec![ExecKind::Serial, ExecKind::Parallel],
        other => panic!("--mode {other}: expected both|serial|parallel"),
    };
    println!("Scale 03 (toward 1M): N in {sizes:?}, {parts} partitions, mode {mode}, seed {seed}");

    let mut points: Vec<Point> = Vec::new();
    for &n in &sizes {
        let mut per_n: Vec<Point> = Vec::new();
        for &kind in &kinds {
            let p = run_point(n, parts, workers, seed, kind);
            println!(
                "  N={:>7} {:>8}: {:>10} events, {:>7.1}s wall ({:.0} events/s, {} workers), \
                 peak RSS {:.0} MB, completeness {:.3}",
                p.n,
                mode_name(kind),
                p.run.events,
                p.wall_s,
                per_second(p.run.events, p.wall_s),
                p.workers,
                p.peak_rss as f64 / 1e6,
                p.rows as f64 / p.n as f64,
            );
            per_n.push(p);
        }
        // `--mode both`: parallel must reproduce serial on every
        // deterministic counter — the executor's whole contract.
        if per_n.len() == 2 {
            assert_eq!(
                deterministic_row(&per_n[0]),
                deterministic_row(&per_n[1]),
                "serial and parallel runs diverged at N={n}"
            );
        }
        points.extend(per_n);
    }

    // Deterministic columns only, one row per N (identical whichever
    // mode produced it — asserted above; the CI smoke `cmp`s a
    // serial-only against a parallel-only run).
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut seen: Vec<usize> = Vec::new();
    for p in &points {
        if !seen.contains(&p.n) {
            seen.push(p.n);
            rows.push(deterministic_row(p));
        }
    }
    let header = [
        &["n", "parts", "lookahead_us"][..],
        &RunCounters::COLUMNS,
        &["rows", "completeness"],
    ]
    .concat();
    out.write_csv("scale03.csv", &header, &rows);
    json_twin(&json, seed, &points);

    let mut t = OutTable::new(&[
        "n",
        "mode",
        "workers",
        "events",
        "wall_s",
        "events/s",
        "peak_rss_MB",
    ]);
    for p in &points {
        t.row(vec![
            p.n.to_string(),
            mode_name(p.kind).into(),
            p.workers.to_string(),
            p.run.events.to_string(),
            format!("{:.1}", p.wall_s),
            format!("{:.0}", per_second(p.run.events, p.wall_s)),
            format!("{:.0}", p.peak_rss as f64 / 1e6),
        ]);
    }
    t.print();
}
