//! Chaos 01: the full Seaweed stack under a deterministic fault plan —
//! a structural partition, a correlated branch outage with
//! crash-amnesia, bystander crashes, link degradation, duplication and
//! reordering — with the runtime invariant oracles checked at fault-
//! straddling checkpoints.
//!
//! Emits one CSV row per seed (`chaos01.csv`) with the converged
//! completeness, the per-cause drop ledger and the oracle verdict. Exits
//! non-zero if any oracle invariant is violated, so the experiment
//! doubles as a CI chaos smoke; with a fixed `--seed` the CSV is
//! byte-stable across runs.

use crate::{Args, OutDir, OutTable};
use seaweed_core::{chaos_sim, chaos_world, run_chaos, ChaosRun, SeaweedConfig};

pub fn run(args: &Args, out: &OutDir) {
    let n = args.get("n", 36usize);
    let routers = args.get("routers", 24usize);
    let seed0 = args.get("seed", 42u64);
    let seeds = args.get("seeds", 8u64);

    println!(
        "Chaos 01: {n} endsystems, {routers} routers, seeds {seed0}..{}",
        seed0 + seeds
    );
    #[expect(
        clippy::disallowed_methods,
        reason = "operator-facing progress timing for a host-side experiment driver, never feeds simulated time"
    )]
    let t0 = std::time::Instant::now();
    let world = |seed| chaos_world(n, routers, seed, chaos_sim, SeaweedConfig::default());
    let outcomes: Vec<(u64, ChaosRun)> = (seed0..seed0 + seeds)
        .map(|seed| (seed, run_chaos(world(seed))))
        .collect();
    println!("  simulated in {:.1}s", t0.elapsed().as_secs_f64());

    let rows: Vec<Vec<f64>> = outcomes
        .iter()
        .map(|(seed, o)| {
            let drops = &o.report.drops;
            vec![
                *seed as f64,
                o.rows as f64,
                n as f64,
                o.rows as f64 / n as f64,
                drops.partition as f64,
                drops.link_fault as f64,
                drops.random_loss as f64,
                drops.dest_down as f64,
                drops.duplicated as f64,
                o.stats.result_retries as f64,
                o.stats.amnesia_crashes as f64,
                o.stats.vertex_states_lost as f64,
                f64::from(u8::from(o.violations.is_empty())),
            ]
        })
        .collect();
    out.write_csv(
        "chaos01.csv",
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
    for (seed, o) in &outcomes {
        let drops = &o.report.drops;
        t.row(vec![
            seed.to_string(),
            format!("{:.2}", o.rows as f64 / n as f64),
            drops.partition.to_string(),
            drops.link_fault.to_string(),
            drops.random_loss.to_string(),
            drops.dest_down.to_string(),
            drops.duplicated.to_string(),
            o.stats.result_retries.to_string(),
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
    for (_, o) in &outcomes {
        for (acc, &c) in by_class.iter_mut().zip(o.report.drops.by_class.iter()) {
            *acc += c;
        }
    }
    println!(
        "  drops by class: overlay {} maintenance {} query {}",
        by_class[0], by_class[1], by_class[2]
    );

    let mut failed = false;
    for (seed, o) in &outcomes {
        for v in &o.violations {
            eprintln!("  seed {seed}: ORACLE VIOLATION: {v}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("  all oracles clean across {seeds} seeds");
}
