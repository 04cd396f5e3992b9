//! Ablation 07: hedged dissemination under correlated-branch-outage
//! chaos — tail delay versus hedging bandwidth.
//!
//! Scenario per seed: a correlated branch outage (the smallest branch
//! not containing the origin, ≤ 10% of the population) takes its
//! endsystems down across the query injection, a degraded router pair
//! adds loss and latency, and the base plan keeps random loss,
//! duplication and reordering. Subranges whose primary replica sits in
//! the dead or degraded region only complete after 5 s reissue chains —
//! that is the tail hedging attacks: a backup replica-set member gets
//! the task at the hedge threshold instead.
//!
//! Sweeps the hedge threshold (fraction of the 5 s reissue timeout, plus
//! hedging off) × churn (bystander crash/rejoin cycles during the
//! query) and reports, per configuration, the p50/p90/p99 of
//! delay-to-0.9-completeness across seeds next to the dissemination
//! bandwidth and the hedge ledger. The headline comparison (default 0.5
//! threshold vs off) is printed per churn setting. Exits non-zero on any
//! oracle violation; with a fixed `--seed` the CSV is byte-stable.

use crate::{jobs, run_sweep, Args, OutDir, OutTable};
use seaweed_core::{
    chaos_sim, chaos_world, inject_chaos_query, ChaosOracle, HedgeConfig, SeaweedConfig,
    CHAOS_CHECKPOINTS, CHAOS_T0,
};
use seaweed_sim::{
    CorpNetTopology, CrashSpec, FaultPlan, LinkFaultSpec, NodeIdx, OutageSpec, SimConfig,
};
use seaweed_types::{Duration, Time};

/// The correlated-branch-outage plan: the smallest non-empty branch that
/// does not contain the origin goes down (no amnesia) across the query
/// injection, and one router pair is degraded. `churn` adds two
/// bystander crash/rejoin cycles inside the query window.
fn outage_plan(topo: &CorpNetTopology, n: usize, churn: bool) -> FaultPlan {
    let branch = topo
        .branch_routers()
        .filter(|&r| {
            let sub = topo.subtree_endsystems(r);
            !sub.is_empty() && !sub.contains(&0) && sub.len() * 10 <= n
        })
        .min_by_key(|&r| topo.subtree_endsystems(r).len())
        .or_else(|| {
            topo.branch_routers()
                .filter(|&r| !topo.subtree_endsystems(r).contains(&0))
                .min_by_key(|&r| topo.subtree_endsystems(r).len())
        })
        .expect("a branch router without the origin");
    let outage = OutageSpec::branch_outage(
        topo,
        branch,
        Time::from_secs(595),
        Time::from_secs(700),
        false,
    );

    let za = topo.router_of(NodeIdx(1)) as u32;
    let mut zb = topo.router_of(NodeIdx(2)) as u32;
    if zb == za {
        zb = topo.router_of(NodeIdx(3)) as u32;
    }

    let crashes = if churn {
        let excluded = &outage.members;
        let bystanders: Vec<u32> = (1..n as u32)
            .filter(|m| !excluded.contains(m))
            .take(2)
            .collect();
        vec![
            CrashSpec {
                node: NodeIdx(bystanders[0]),
                at: Time::from_secs(601),
                rejoin_after: Duration::from_secs(40),
            },
            CrashSpec {
                node: NodeIdx(bystanders[1]),
                at: Time::from_secs(604),
                rejoin_after: Duration::from_secs(30),
            },
        ]
    } else {
        Vec::new()
    };

    FaultPlan {
        partitions: Vec::new(),
        link_faults: vec![LinkFaultSpec {
            zone_a: za,
            zone_b: zb,
            from: Time::from_secs(595),
            until: Time::from_secs(700),
            extra_loss: 0.15,
            latency_mult: 3.0,
        }],
        crashes,
        outages: vec![outage],
        dup_rate: 0.02,
        reorder_window: Duration::from_millis(50),
    }
}

#[derive(Clone, Copy)]
struct Config {
    /// Hedge threshold as a fraction of the reissue timeout; `None` = off.
    hedge: Option<f64>,
    churn: bool,
}

struct RunOutcome {
    /// Delay to 0.9-completeness, censored at the horizon.
    t90: Duration,
    dissem_bytes: u64,
    hedges_sent: u64,
    hedge_wins: u64,
    hedge_losses: u64,
    hedge_wasted_bytes: u64,
    give_ups: u64,
    reissues: u64,
    violations: Vec<String>,
}

fn run_one(cfg: Config, seed: u64, n: usize, routers: usize) -> RunOutcome {
    // The chaos world under this ablation's own fault plan.
    let (mut eng, mut sw, schema) = chaos_world(
        n,
        routers,
        seed,
        |topo| SimConfig {
            faults: Some(outage_plan(topo, n, cfg.churn)),
            ..chaos_sim(topo)
        },
        SeaweedConfig {
            hedge: cfg.hedge.map(|fraction| HedgeConfig {
                fallback_fraction: fraction,
            }),
            ..Default::default()
        },
    );
    sw.run_until(&mut eng, CHAOS_T0);
    let h = inject_chaos_query(&mut eng, &mut sw, &schema);

    let oracle = ChaosOracle::new(n as u64);
    let mut violations = Vec::new();
    for t in CHAOS_CHECKPOINTS {
        sw.run_until(&mut eng, Time::from_secs(t));
        violations.extend(oracle.check(&sw, &eng));
    }

    // Censored at the last checkpoint if 0.9-completeness is never reached.
    let horizon = Time::from_secs(CHAOS_CHECKPOINTS[CHAOS_CHECKPOINTS.len() - 1]);
    let t90 = sw
        .timeline(h)
        .time_to_completeness(0.9, n as f64)
        .unwrap_or_else(|| horizon.saturating_since(CHAOS_T0));
    RunOutcome {
        t90,
        dissem_bytes: sw.stats.dissem_bytes,
        hedges_sent: sw.stats.hedges_sent,
        hedge_wins: sw.stats.hedge_wins,
        hedge_losses: sw.stats.hedge_losses,
        hedge_wasted_bytes: sw.stats.hedge_wasted_bytes,
        give_ups: sw.stats.dissem_give_ups,
        reissues: sw.stats.dissem_reissues,
        violations,
    }
}

/// Nearest-rank percentile of already-run delays (integer sort, no
/// float comparisons).
fn percentile(sorted: &[u64], p: u64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = (p * sorted.len() as u64).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

struct Aggregate {
    cfg: Config,
    p50: u64,
    p90: u64,
    p99: u64,
    mean_dissem_bytes: u64,
    hedges_sent: u64,
    hedge_wins: u64,
    hedge_losses: u64,
    hedge_wasted_bytes: u64,
    give_ups: u64,
    reissues: u64,
    oracle_ok: bool,
}

fn label(cfg: Config) -> String {
    let hedge = cfg
        .hedge
        .map_or_else(|| "off".to_owned(), |f| format!("{f:.2}"));
    format!("hedge={hedge} churn={}", u8::from(cfg.churn))
}

pub fn run(args: &Args, out: &OutDir) {
    let n = args.get("n", 36usize);
    let routers = args.get("routers", 24usize);
    let seed0 = args.get("seed", 42u64);
    let seeds = args.get("seeds", 24u64);

    let mut configs = Vec::new();
    for churn in [false, true] {
        for hedge in [None, Some(0.25), Some(0.5), Some(0.75)] {
            configs.push(Config { hedge, churn });
        }
    }
    println!(
        "Ablation 07: hedged dissemination, {n} endsystems, {routers} routers, \
         {} configs x seeds {seed0}..{}",
        configs.len(),
        seed0 + seeds
    );

    let runs: Vec<(Config, u64)> = configs
        .iter()
        .flat_map(|&c| (seed0..seed0 + seeds).map(move |s| (c, s)))
        .collect();
    #[expect(
        clippy::disallowed_methods,
        reason = "operator-facing progress timing for a host-side experiment driver, never feeds simulated time"
    )]
    let t0 = std::time::Instant::now();
    let outcomes = run_sweep(runs.clone(), jobs(args, runs.len()), |_, &(c, s)| {
        run_one(c, s, n, routers)
    });
    println!(
        "  {} runs simulated in {:.1}s",
        runs.len(),
        t0.elapsed().as_secs_f64()
    );

    let mut failed = false;
    let aggregates: Vec<Aggregate> = configs
        .iter()
        .enumerate()
        .map(|(ci, &cfg)| {
            let slice = &outcomes[ci * seeds as usize..(ci + 1) * seeds as usize];
            let mut delays: Vec<u64> = slice.iter().map(|o| o.t90.as_micros()).collect();
            delays.sort_unstable();
            let mut oracle_ok = true;
            for (o, (_, seed)) in slice.iter().zip(&runs[ci * seeds as usize..]) {
                for v in &o.violations {
                    eprintln!("  {} seed {seed}: ORACLE VIOLATION: {v}", label(cfg));
                    oracle_ok = false;
                    failed = true;
                }
            }
            Aggregate {
                cfg,
                p50: percentile(&delays, 50),
                p90: percentile(&delays, 90),
                p99: percentile(&delays, 99),
                mean_dissem_bytes: slice.iter().map(|o| o.dissem_bytes).sum::<u64>() / seeds.max(1),
                hedges_sent: slice.iter().map(|o| o.hedges_sent).sum(),
                hedge_wins: slice.iter().map(|o| o.hedge_wins).sum(),
                hedge_losses: slice.iter().map(|o| o.hedge_losses).sum(),
                hedge_wasted_bytes: slice.iter().map(|o| o.hedge_wasted_bytes).sum(),
                give_ups: slice.iter().map(|o| o.give_ups).sum(),
                reissues: slice.iter().map(|o| o.reissues).sum(),
                oracle_ok,
            }
        })
        .collect();

    let rows: Vec<Vec<f64>> = aggregates
        .iter()
        .map(|a| {
            vec![
                a.cfg.hedge.unwrap_or(-1.0),
                f64::from(u8::from(a.cfg.churn)),
                seeds as f64,
                a.p50 as f64,
                a.p90 as f64,
                a.p99 as f64,
                a.mean_dissem_bytes as f64,
                a.hedges_sent as f64,
                a.hedge_wins as f64,
                a.hedge_losses as f64,
                a.hedge_wasted_bytes as f64,
                a.give_ups as f64,
                f64::from(u8::from(a.oracle_ok)),
            ]
        })
        .collect();
    out.write_csv(
        "abl07.csv",
        &[
            "hedge_fraction",
            "churn",
            "seeds",
            "p50_t90_us",
            "p90_t90_us",
            "p99_t90_us",
            "mean_dissem_bytes",
            "hedges_sent",
            "hedge_wins",
            "hedge_losses",
            "hedge_wasted_bytes",
            "give_ups",
            "oracle_ok",
        ],
        &rows,
    );

    let mut t = OutTable::new(&[
        "config", "p50 t90", "p90 t90", "p99 t90", "dissem B", "hedges", "wins", "wasted B",
        "reiss", "giveup", "oracle",
    ]);
    let fmt_s = |us: u64| format!("{:.2}s", us as f64 / 1e6);
    for a in &aggregates {
        t.row(vec![
            label(a.cfg),
            fmt_s(a.p50),
            fmt_s(a.p90),
            fmt_s(a.p99),
            a.mean_dissem_bytes.to_string(),
            a.hedges_sent.to_string(),
            a.hedge_wins.to_string(),
            a.hedge_wasted_bytes.to_string(),
            a.reissues.to_string(),
            a.give_ups.to_string(),
            if a.oracle_ok { "ok" } else { "VIOLATED" }.to_string(),
        ]);
    }
    t.print();

    // Headline: default threshold (0.5 x the reissue timeout) vs hedging
    // off, per churn setting.
    println!("  default threshold (0.5) vs off:");
    for churn in [false, true] {
        let find = |hedge: Option<f64>| {
            aggregates
                .iter()
                .find(|a| a.cfg.churn == churn && a.cfg.hedge == hedge)
        };
        let (Some(off), Some(def)) = (find(None), find(Some(0.5))) else {
            continue;
        };
        let p99_cut = 100.0 - 100.0 * def.p99 as f64 / off.p99 as f64;
        let p50_delta = 100.0 * def.p50 as f64 / off.p50 as f64 - 100.0;
        let bw_extra = 100.0 * def.mean_dissem_bytes as f64 / off.mean_dissem_bytes as f64 - 100.0;
        println!(
            "    churn={}: p99 {} -> {} ({p99_cut:+.1}% cut), \
             p50 {p50_delta:+.2}%, dissem bytes {bw_extra:+.2}%",
            u8::from(churn),
            fmt_s(off.p99),
            fmt_s(def.p99),
        );
    }

    if failed {
        std::process::exit(1);
    }
    println!("  all oracles clean across {} runs", runs.len());
}
