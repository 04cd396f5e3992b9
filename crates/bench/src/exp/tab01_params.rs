//! Table 1: model parameters.
//!
//! Prints the analytic-model parameter set with each value's provenance,
//! plus the measured equivalents from our synthetic substitutes (trace
//! statistics and generated-workload summary sizes) so the calibration is
//! visible.

use crate::{Args, OutDir, OutTable};
use seaweed_availability::FarsiteConfig;
use seaweed_store::DataSummary;
use seaweed_types::Duration;
use seaweed_workload::AnemoneConfig;

pub fn run(args: &Args, _out: &OutDir) {
    let n = args.get("n", 1500usize);
    let seed = args.get("seed", 1u64);

    let p = seaweed_analytic::ModelParams::default();
    println!("Table 1: model parameters (paper values)\n");
    let mut t = OutTable::new(&["variable", "description", "value", "source"]);
    t.row(vec![
        "N".into(),
        "number of endsystems".into(),
        format!("{}", p.n),
        "Microsoft CorpNet".into(),
    ]);
    t.row(vec![
        "f_on".into(),
        "fraction available".into(),
        format!("{}", p.f_on),
        "Farsite".into(),
    ]);
    t.row(vec![
        "c".into(),
        "churn rate (1/s)".into(),
        format!("{:.1e}", p.c),
        "Farsite".into(),
    ]);
    t.row(vec![
        "u".into(),
        "update rate (B/s)".into(),
        format!("{}", p.u),
        "Anemone".into(),
    ]);
    t.row(vec![
        "d".into(),
        "database size (B)".into(),
        format!("{:.1e}", p.d),
        "Anemone".into(),
    ]);
    t.row(vec![
        "k".into(),
        "replicas".into(),
        format!("{}", p.k),
        "Farsite".into(),
    ]);
    t.row(vec![
        "h".into(),
        "summary size (B)".into(),
        format!("{}", p.h),
        "Seaweed/Anemone".into(),
    ]);
    t.row(vec![
        "a".into(),
        "availability model (B)".into(),
        format!("{}", p.a),
        "Seaweed".into(),
    ]);
    t.row(vec![
        "p".into(),
        "summary push rate (1/s)".into(),
        format!("{:.2e}", p.p),
        "Seaweed (see params.rs note)".into(),
    ]);
    t.row(vec![
        "r".into(),
        "PIER refresh (1/s)".into(),
        "3.3e-3 / 2.8e-4".into(),
        "PIER (5 min / 1 h)".into(),
    ]);
    t.print();

    println!("\nmeasured from our synthetic substitutes ({n} endsystems, seed {seed}):\n");
    let (trace, _) = FarsiteConfig::small(n, 4).generate(seed);
    let stats = trace.stats();
    let anemone = AnemoneConfig::default();
    let sample = 40.min(n);
    let mut h_sum = 0u64;
    let mut bytes = 0u64;
    for node in 0..sample {
        let t = anemone.generate_flow_table(seed, node, trace.intervals(node));
        h_sum += u64::from(DataSummary::build(&t).wire_size());
        bytes += t.approx_bytes();
    }
    let h_mean = h_sum as f64 / sample as f64;
    let d_mean = bytes as f64 / sample as f64;
    let u_mean = d_mean / (Duration::WEEK * 3).as_secs_f64();

    let mut m = OutTable::new(&["variable", "paper", "measured (synthetic)"]);
    m.row(vec![
        "f_on".into(),
        "0.81".into(),
        format!("{:.3}", stats.mean_availability),
    ]);
    m.row(vec![
        "departure rate".into(),
        "4.06e-6 /online/s".into(),
        format!("{:.2e} /online/s", stats.departure_rate_per_online_sec),
    ]);
    m.row(vec![
        "c".into(),
        "6.9e-6".into(),
        format!("{:.2e}", stats.churn_rate(n)),
    ]);
    m.row(vec!["h".into(), "6473 B".into(), format!("{h_mean:.0} B")]);
    m.row(vec![
        "d".into(),
        "2.6e9 B (1 month, full packet data)".into(),
        format!("{d_mean:.2e} B (3 weeks, flow records only)"),
    ]);
    m.row(vec![
        "u".into(),
        "970 B/s".into(),
        format!("{u_mean:.1} B/s (flow records only)"),
    ]);
    m.print();
}
