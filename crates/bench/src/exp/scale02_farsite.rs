//! Scale 02: simulator throughput as the endsystem population grows, up
//! to the paper's Farsite-scale run, end-to-end at packet level.
//!
//! The paper's evaluation (fig05-08) replays a 51,663-endsystem Farsite
//! corporate-desktop trace. This sweep doubles N from `--base` (default
//! 1,000) up to `--max-n` (default 16,000) on the 298-router CorpNet
//! topology and then runs the full 51,663-endsystem population
//! (`--farsite-n`, 0 to skip): every endsystem joins the overlay, runs
//! the metadata push loop, and one SUM aggregation query covers the
//! whole population. Each point must finish **complete and clean**:
//! completeness 1.0 (every endsystem's row aggregated) and a
//! [`ChaosOracle`] pass over the final state.
//!
//! Two artifacts:
//!
//! * `scale02.csv` — deterministic columns only (events,
//!   messages, bytes by traffic class, protocol counters); with a fixed
//!   `--seed` the file is byte-stable across machines (CI smoke compares
//!   two runs with `cmp`).
//! * `BENCH_scale02.json` — the same points plus wall-clock seconds,
//!   events/second and peak RSS, the machine-dependent numbers backing
//!   the EXPERIMENTS.md entry.

use crate::counters::RunCounters;
use crate::report::{peak_rss_bytes, per_second, write_report, Fields, Value};
use crate::{Args, OutDir, OutTable};
use seaweed_core::{boot_staggered, build_world, flag_fixture, ChaosOracle, SeaweedConfig};
use seaweed_overlay::OverlayConfig;
use seaweed_sim::{CorpNetTopology, NodeIdx, SimConfig};
use seaweed_types::{Duration, Time};

/// The Farsite trace population (paper §4).
const FARSITE_N: usize = 51_663;

/// Peak RSS of the full sweep at `FARSITE_N` *before* the hot-state
/// slimming (measured on the same container class; see git history of
/// `BENCH_scale02.json`).
const PEAK_RSS_BEFORE_SLIMMING: u64 = 3_848_216_576;

struct Point {
    n: usize,
    wall_s: f64,
    peak_rss: u64,
    run: RunCounters,
    rows: u64,
}

fn run_point(n: usize, seed: u64) -> Point {
    let (tables, schema) = flag_fixture(0..n as u32, 1);
    let (mut eng, mut sw) = build_world(
        Box::new(CorpNetTopology::new(n, seed)),
        seed,
        SimConfig::default(),
        OverlayConfig::default(),
        SeaweedConfig::default(),
        tables,
    );
    // All endsystems come up within the first simulated minute, whatever
    // the population, so per-endsystem workload is N-independent and the
    // sweep isolates simulator scaling.
    boot_staggered(&mut eng, Duration((60_000_000 / n as u64).max(1)));

    #[expect(
        clippy::disallowed_methods,
        reason = "host-side benchmark timing for BENCH_scale02.json, never feeds simulated time"
    )]
    let t0 = std::time::Instant::now();
    // Joins plus one full metadata-push cycle, then a population-wide
    // aggregation query for the second half-hour.
    let mut events = sw.run_until(&mut eng, Time::from_secs(900));
    let h = sw
        .inject_query(
            &mut eng,
            NodeIdx(0),
            "SELECT SUM(v) FROM T WHERE flag = 1",
            Duration::from_hours(1),
            &schema,
        )
        .expect("inject");
    events += sw.run_until(&mut eng, Time::from_secs(1800));
    let wall_s = t0.elapsed().as_secs_f64();

    // End-to-end acceptance: every endsystem's row reached the origin
    // (completeness 1.0) and the protocol invariants hold on the final
    // state — the Farsite point is only a result if it is *clean*.
    let rows = sw.query(h).rows();
    assert_eq!(rows, n as u64, "completeness must be 1.0 at N={n}");
    ChaosOracle::new(n as u64).assert_clean(&sw, &eng);

    Point {
        n,
        wall_s,
        peak_rss: peak_rss_bytes(),
        run: RunCounters::harvest(events, &sw, eng),
        rows,
    }
}

fn json_twin(path: &str, seed: u64, points: &[Point]) {
    let header: Fields = vec![
        ("bench", "scale02_farsite".into()),
        ("seed", seed.into()),
        // Pre-slimming reference: the checked-in full-sweep peak RSS at
        // N=51,663 before the per-endsystem state diet (flattened lazy
        // routing table, interned predictor buckets, shrink-to-fit
        // histograms), for the before/after comparison in EXPERIMENTS.md.
        (
            "peak_rss_bytes_before_slimming",
            PEAK_RSS_BEFORE_SLIMMING.into(),
        ),
    ];
    let points: Vec<Fields> = points
        .iter()
        .map(|p| {
            vec![
                ("n", p.n.into()),
                ("wall_s", Value::Fixed(p.wall_s, 3)),
                ("events", p.run.events.into()),
                (
                    "events_per_s",
                    Value::Fixed(per_second(p.run.events, p.wall_s), 0),
                ),
                ("peak_rss_bytes", p.peak_rss.into()),
                ("messages", p.run.messages.into()),
                ("tx_overlay_bytes", p.run.tx_bytes[0].into()),
                ("tx_maintenance_bytes", p.run.tx_bytes[1].into()),
                ("tx_query_bytes", p.run.tx_bytes[2].into()),
                ("completeness", Value::Fixed(p.rows as f64 / p.n as f64, 3)),
            ]
        })
        .collect();
    write_report(path, &header, &points);
}

pub fn run(args: &Args, out: &OutDir) {
    let base = args.get("base", 1_000usize);
    let max_n = args.get("max-n", 16_000usize);
    // The headline point; `--farsite-n 0` drops it (CI smoke).
    let farsite_n = args.get("farsite-n", FARSITE_N);
    let seed = args.get("seed", 42u64);
    let json = args.get_str("json", "BENCH_scale02.json");

    let mut sizes = Vec::new();
    let mut n = base;
    while n <= max_n {
        sizes.push(n);
        n *= 2;
    }
    if farsite_n > 0 && !sizes.contains(&farsite_n) {
        sizes.push(farsite_n);
    }
    sizes.sort_unstable();
    println!("Scale 02 (Farsite): N in {sizes:?}, seed {seed}");

    let mut points = Vec::new();
    for &n in &sizes {
        let p = run_point(n, seed);
        println!(
            "  N={:>6}: {:>9} events, {:>6.1}s wall ({:.0} events/s), peak RSS {:.0} MB, completeness {:.3}",
            p.n,
            p.run.events,
            p.wall_s,
            per_second(p.run.events, p.wall_s),
            p.peak_rss as f64 / 1e6,
            p.rows as f64 / p.n as f64,
        );
        points.push(p);
    }

    // Deterministic columns only — the CI smoke `cmp`s two same-seed runs.
    let rows: Vec<Vec<f64>> = points
        .iter()
        .map(|p| {
            let mut row = vec![p.n as f64];
            row.extend(p.run.columns());
            row.extend([p.rows as f64, p.rows as f64 / p.n as f64]);
            row
        })
        .collect();
    let header = [&["n"][..], &RunCounters::COLUMNS, &["rows", "completeness"]].concat();
    out.write_csv("scale02.csv", &header, &rows);
    json_twin(&json, seed, &points);

    let mut t = OutTable::new(&["n", "events", "wall_s", "events/s", "peak_rss_MB"]);
    for p in &points {
        t.row(vec![
            p.n.to_string(),
            p.run.events.to_string(),
            format!("{:.1}", p.wall_s),
            format!("{:.0}", per_second(p.run.events, p.wall_s)),
            format!("{:.0}", p.peak_rss as f64 / 1e6),
        ]);
    }
    t.print();
}
