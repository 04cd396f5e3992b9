//! Figure 1: availability of the endsystem population over the trace
//! (hourly probes; paper: 51,663 endsystems, July/August 1999, mean 81%,
//! visible diurnal and weekly banding).

use crate::{Args, OutDir};
use seaweed_availability::FarsiteConfig;

pub fn run(args: &Args, out: &OutDir) {
    let full = args.has("full");
    let n = args.get("n", if full { 51_663 } else { 5_000 });
    let weeks = args.get("weeks", 4u64);
    let seed = args.get("seed", 1u64);

    println!("Figure 1: hourly availability of {n} endsystems over {weeks} weeks (seed {seed})");
    let (trace, _) = FarsiteConfig::small(n, weeks).generate(seed);
    let series = trace.hourly_availability();
    let stats = trace.stats();

    let rows: Vec<Vec<f64>> = series
        .iter()
        .enumerate()
        .map(|(h, &frac)| vec![h as f64, frac * n as f64, frac])
        .collect();
    out.write_csv(
        "fig01_availability.csv",
        &["hour", "available", "fraction"],
        &rows,
    );

    let min = series.iter().copied().fold(1.0f64, f64::min);
    let max = series.iter().copied().fold(0.0f64, f64::max);
    println!(
        "  mean availability: {:.1}% (paper: 81%)",
        stats.mean_availability * 100.0
    );
    println!("  hourly range: {:.1}% .. {:.1}%", min * 100.0, max * 100.0);
    println!(
        "  departure rate: {:.2e} per online endsystem per second (paper: 4.06e-6)",
        stats.departure_rate_per_online_sec
    );

    // Tiny ASCII sparkline of the first two weeks, one char per 4 hours.
    let lo = min;
    let span = (max - lo).max(1e-9);
    let glyphs: Vec<char> = " .:-=+*#%@".chars().collect();
    let line: String = series
        .iter()
        .take((14 * 24).min(series.len()))
        .step_by(4)
        .map(|&v| glyphs[(((v - lo) / span) * (glyphs.len() - 1) as f64).round() as usize])
        .collect();
    println!("  first 2 weeks (1 char = 4 h): {line}");
}
