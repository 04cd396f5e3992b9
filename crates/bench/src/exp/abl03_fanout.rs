//! Ablation: dissemination fanout (Pastry digit width b).
//!
//! The dissemination tree splits ranges 2^b ways; b also sets the routing
//! table shape. Sweeps b and measures query dissemination cost, predictor
//! latency and routing hop counts.

use crate::fullsim::{run_full, FullSimConfig};
use crate::{jobs, run_sweep, Args, OutDir, OutTable};
use seaweed_availability::FarsiteConfig;
use seaweed_types::{Duration, Time};

pub fn run(args: &Args, out: &OutDir) {
    let n = args.get("n", 800usize);
    let seed = args.get("seed", 16u64);

    println!("Ablation: overlay digit width b (dissemination fanout 2^b), {n} endsystems");
    let (trace, _) = {
        let mut fc = FarsiteConfig::small(n, 1);
        fc.horizon = Duration::from_days(3);
        fc.generate(seed)
    };
    let widths = vec![1u8, 2, 4, 8];
    let workers = jobs(args, widths.len());
    let results = run_sweep(widths, workers, |_, &b| {
        let mut cfg = FullSimConfig::new(seed);
        cfg.overlay.b = b;
        cfg.injections = vec![Time::ZERO + Duration::from_days(1)];
        (b, run_full(&cfg, &trace))
    });
    let mut rows = Vec::new();
    let mut t = OutTable::new(&[
        "b",
        "fanout",
        "dissem msgs",
        "dissem B/endsystem",
        "predictor latency",
        "mean route hops",
    ]);
    for (b, result) in &results {
        let b = *b;
        let latency = result.queries[0]
            .predictor_latency
            .expect("predictor arrives");
        let hops = result.overlay_stats.total_hops as f64
            / result.overlay_stats.delivered_messages.max(1) as f64;
        let dissem_per = result.seaweed_stats.dissem_bytes as f64 / n as f64;
        rows.push(vec![
            f64::from(b),
            f64::from(1u32 << b),
            result.seaweed_stats.disseminate_msgs as f64,
            dissem_per,
            latency.as_secs_f64(),
            hops,
        ]);
        t.row(vec![
            format!("{b}"),
            format!("{}", 1u32 << b),
            format!("{}", result.seaweed_stats.disseminate_msgs),
            format!("{dissem_per:.0}"),
            format!("{latency}"),
            format!("{hops:.2}"),
        ]);
    }
    out.write_csv(
        "abl03_fanout.csv",
        &[
            "b",
            "fanout",
            "dissem_msgs",
            "dissem_bytes_per_endsystem",
            "latency_secs",
            "mean_hops",
        ],
        &rows,
    );
    t.print();
    println!("  (wider digits: fewer hops and lower latency, more messages per split level)");
}
