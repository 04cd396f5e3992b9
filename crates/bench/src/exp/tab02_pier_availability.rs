//! Table 2: expected availability of a source's tuples in PIER, `t` after
//! its last refresh, for Farsite and Gnutella churn — plus the same
//! quantity measured directly on our synthetic traces.

use crate::{Args, OutDir, OutTable};
use seaweed_analytic::params::{CHURN_FARSITE, CHURN_GNUTELLA};
use seaweed_analytic::pier_availability;
use seaweed_availability::{AvailabilityTrace, FarsiteConfig, GnutellaConfig};
use seaweed_types::{Duration, Time};

pub fn run(args: &Args, out: &OutDir) {
    let n = args.get("n", 1500usize);
    let seed = args.get("seed", 1u64);

    let checkpoints = [
        ("5 min", 300.0),
        ("1 hour", 3_600.0),
        ("12 hours", 43_200.0),
    ];

    println!("Table 2: expected availability in PIER (analytic e^-ct)\n");
    let mut t = OutTable::new(&["time since refresh", "Farsite", "Gnutella"]);
    let mut rows = Vec::new();
    for (label, secs) in checkpoints {
        let f = pier_availability(CHURN_FARSITE, secs);
        let g = pier_availability(CHURN_GNUTELLA, secs);
        t.row(vec![
            label.into(),
            format!("{:.1}%", f * 100.0),
            format!("{:.1}%", g * 100.0),
        ]);
        rows.push(vec![secs, f, g]);
    }
    t.print();
    out.write_csv(
        "tab02_pier_availability.csv",
        &["t_secs", "farsite", "gnutella"],
        &rows,
    );

    // Measured on synthetic traces: probability that a source up at a
    // random instant is still up t later (the event that keeps its PIER
    // tuples reachable without waiting for the next refresh).
    println!("\nmeasured on synthetic traces ({n} endsystems):\n");
    let (farsite, _) = FarsiteConfig::small(n, 4).generate(seed);
    let gnutella = GnutellaConfig::small(n, 60).generate(seed);
    let mut m = OutTable::new(&["time since refresh", "Farsite-like", "Gnutella-like"]);
    for (label, secs) in checkpoints {
        let f = survival(&farsite, Duration::from_secs(secs as u64), 4000, seed);
        let g = survival(&gnutella, Duration::from_secs(secs as u64), 4000, seed ^ 1);
        m.row(vec![
            label.into(),
            format!("{:.1}%", f * 100.0),
            format!("{:.1}%", g * 100.0),
        ]);
    }
    m.print();
    println!("\n(the paper's cells: Farsite 99.8 / 98.0 / 78.9; Gnutella 97.3 / 71.6 / 1.8)");
}

/// P(up at s + t | up at s) for uniformly random (node, s) samples —
/// continuous availability is what preserves a PIER source's tuples.
fn survival(trace: &AvailabilityTrace, t: Duration, samples: usize, seed: u64) -> f64 {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let horizon = trace.horizon().as_micros().saturating_sub(t.as_micros());
    let mut up_at_s = 0u64;
    let mut still_up = 0u64;
    while up_at_s < samples as u64 {
        let node = rng.gen_range(0..trace.num_endsystems());
        let s = Time::from_micros(rng.gen_range(0..horizon));
        if !trace.is_up(node, s) {
            continue;
        }
        up_at_s += 1;
        // "Still available": never left between s and s + t (a departure
        // moves the key's root even if the node returns).
        let continuously = trace
            .intervals(node)
            .iter()
            .any(|&(up, down)| up <= s && s + t < down);
        still_up += u64::from(continuously);
    }
    still_up as f64 / up_at_s as f64
}
