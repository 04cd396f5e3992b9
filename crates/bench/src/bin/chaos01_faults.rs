//! Chaos 01: the full Seaweed stack under a deterministic fault plan —
//! a structural partition, a correlated branch outage with
//! crash-amnesia, bystander crashes, link degradation, duplication and
//! reordering — with the runtime invariant oracles checked at fault-
//! straddling checkpoints.
//!
//! Emits one CSV row per seed (`results/chaos01.csv` by default) with
//! the converged completeness, the per-cause drop ledger and the oracle
//! verdict. Exits non-zero if any oracle invariant is violated, so the
//! binary doubles as a CI chaos smoke; with a fixed `--seed` the CSV is
//! byte-stable across runs.

use seaweed_bench::{write_csv, Args, OutTable};
use seaweed_core::{boot_staggered, build_world, flag_fixture, ChaosOracle, SeaweedConfig};
use seaweed_overlay::OverlayConfig;
use seaweed_sim::{CorpNetTopology, DropStats, FaultPlan, NodeIdx, SimConfig};
use seaweed_types::{Duration, Time};

struct SeedOutcome {
    seed: u64,
    rows: u64,
    retries: u64,
    amnesia: u64,
    states_lost: u64,
    drops: DropStats,
    violations: Vec<String>,
}

fn run_seed(seed: u64, n: usize, routers: usize) -> SeedOutcome {
    let (tables, schema) = flag_fixture(0..n as u32, 1);
    let topo = CorpNetTopology::with_params(n, routers, Duration::MILLISECOND, seed);
    let plan = FaultPlan::chaos(&topo, &[]);
    let (mut eng, mut sw) = build_world(
        Box::new(topo),
        seed,
        SimConfig {
            loss_rate: 0.01,
            faults: Some(plan),
            ..SimConfig::default()
        },
        OverlayConfig::default(),
        SeaweedConfig::default(),
        tables,
    );
    boot_staggered(&mut eng, Duration::from_millis(300));
    sw.run_until(&mut eng, Time::from_secs(600));
    let h = sw
        .inject_query(
            &mut eng,
            NodeIdx(0),
            "SELECT SUM(v) FROM T WHERE flag = 1",
            Duration::from_hours(4),
            &schema,
        )
        .expect("inject");

    // Checkpoints straddle every fault window: mid-partition/outage,
    // post-crash-rejoin, post-heal, and converged.
    let oracle = ChaosOracle::new(n as u64);
    let mut violations = Vec::new();
    for t in [650, 720, 800, 1000, 1500] {
        sw.run_until(&mut eng, Time::from_secs(t));
        violations.extend(oracle.check(&sw, &eng));
    }

    let rows = sw.query(h).rows();
    let retries = sw.stats.result_retries;
    let amnesia = sw.stats.amnesia_crashes;
    let states_lost = sw.stats.vertex_states_lost;
    let drops = eng.finish().drops;
    SeedOutcome {
        seed,
        rows,
        retries,
        amnesia,
        states_lost,
        drops,
        violations,
    }
}

fn main() {
    let args = Args::parse();
    let n = args.get("n", 36usize);
    let routers = args.get("routers", 24usize);
    let seed0 = args.get("seed", 42u64);
    let seeds = args.get("seeds", 8u64);
    let out = args.get_str("out", "results/chaos01.csv");

    println!(
        "Chaos 01: {n} endsystems, {routers} routers, seeds {seed0}..{}",
        seed0 + seeds
    );
    // lint:allow(D002): operator-facing progress timing for a host-side experiment driver, never feeds simulated time
    let t0 = std::time::Instant::now();
    let outcomes: Vec<SeedOutcome> = (seed0..seed0 + seeds)
        .map(|s| run_seed(s, n, routers))
        .collect();
    println!("  simulated in {:.1}s", t0.elapsed().as_secs_f64());

    let rows: Vec<Vec<f64>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.seed as f64,
                o.rows as f64,
                n as f64,
                o.rows as f64 / n as f64,
                o.drops.partition as f64,
                o.drops.link_fault as f64,
                o.drops.random_loss as f64,
                o.drops.dest_down as f64,
                o.drops.duplicated as f64,
                o.retries as f64,
                o.amnesia as f64,
                o.states_lost as f64,
                f64::from(u8::from(o.violations.is_empty())),
            ]
        })
        .collect();
    write_csv(
        &out,
        &[
            "seed",
            "rows",
            "population",
            "completeness",
            "dropped_partition",
            "dropped_link_fault",
            "dropped_loss",
            "dropped_dest_down",
            "duplicated",
            "result_retries",
            "amnesia_crashes",
            "vertex_states_lost",
            "oracle_ok",
        ],
        &rows,
    );

    let mut t = OutTable::new(&[
        "seed",
        "completeness",
        "part",
        "link",
        "loss",
        "down",
        "dup",
        "retries",
        "oracle",
    ]);
    for o in &outcomes {
        t.row(vec![
            o.seed.to_string(),
            format!("{:.2}", o.rows as f64 / n as f64),
            o.drops.partition.to_string(),
            o.drops.link_fault.to_string(),
            o.drops.random_loss.to_string(),
            o.drops.dest_down.to_string(),
            o.drops.duplicated.to_string(),
            o.retries.to_string(),
            if o.violations.is_empty() {
                "ok"
            } else {
                "VIOLATED"
            }
            .to_string(),
        ]);
    }
    t.print();

    // Per-traffic-class drop totals across the sweep.
    let mut by_class = [0u64; 3];
    for o in &outcomes {
        for (acc, &c) in by_class.iter_mut().zip(o.drops.by_class.iter()) {
            *acc += c;
        }
    }
    println!(
        "  drops by class: overlay {} maintenance {} query {}",
        by_class[0], by_class[1], by_class[2]
    );

    let mut failed = false;
    for o in &outcomes {
        for v in &o.violations {
            eprintln!("  seed {}: ORACLE VIOLATION: {v}", o.seed);
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("  all oracles clean across {seeds} seeds");
}
