//! `seaweed-bench all`: every checked-in table and figure at default
//! (laptop) scale, in paper order.
//!
//! The driver re-runs its own executable once per `in_all` row of the
//! registry, so each experiment's output (and its CSVs) is identical to
//! running it by name, and its peak RSS is its own. Flags are handed
//! through to every child. Experiments run `--jobs` at a time; each
//! child's output is captured and printed in paper order once the sweep
//! finishes, with a progress line as each child exits.

use std::process::Command;

use super::EXPERIMENTS;
use crate::{jobs, run_sweep, Args, OutDir};

/// The rows `all` runs, by name.
pub(super) fn selected() -> Vec<&'static str> {
    let rows = EXPERIMENTS.iter().filter(|e| e.in_all);
    rows.map(|e| e.name).collect()
}

pub fn run(args: &Args, out: &OutDir) {
    let names = selected();
    let self_path = std::env::current_exe().expect("own path");
    // Children are internally single-threaded per run (their own sweeps
    // fall back to --jobs 1 here), so process-level parallelism is the
    // only fan-out and the machine is not oversubscribed.
    let workers = jobs(args, names.len());
    let passthrough: Vec<String> = std::env::args().skip(2).collect();
    println!("running {} experiments, {workers} at a time", names.len());
    #[expect(
        clippy::disallowed_methods,
        reason = "operator-facing progress timing for a host-side experiment driver, never feeds simulated time"
    )]
    let started = std::time::Instant::now();

    let outcomes = run_sweep(names.clone(), workers, |i, &exp| {
        #[expect(
            clippy::disallowed_methods,
            reason = "operator-facing progress timing for a host-side experiment driver, never feeds simulated time"
        )]
        let t0 = std::time::Instant::now();
        let output = Command::new(&self_path)
            .arg(exp)
            .args(&passthrough)
            .args(["--jobs", "1"])
            .output()
            .expect("re-run own executable");
        let secs = t0.elapsed().as_secs_f64();
        // Progress line in completion order; full output follows in
        // paper order below.
        println!(
            "  [{}/{}] {exp} {} in {secs:.1}s",
            i + 1,
            names.len(),
            if output.status.success() {
                "finished"
            } else {
                "FAILED"
            },
        );
        (secs, output)
    });

    let mut failures = Vec::new();
    for (i, (name, (secs, output))) in names.iter().zip(&outcomes).enumerate() {
        println!("\n=== [{}/{}] {name} ===", i + 1, names.len());
        print!("{}", String::from_utf8_lossy(&output.stdout));
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        if output.status.success() {
            println!("=== {name} finished in {secs:.1}s ===");
        } else {
            eprintln!("=== {name} FAILED: {} ===", output.status);
            failures.push(name);
        }
    }
    println!(
        "\nall experiments done in {:.1}s",
        started.elapsed().as_secs_f64()
    );
    if failures.is_empty() {
        println!(
            "every experiment completed; series are under {}",
            out.path("")
        );
    } else {
        eprintln!("FAILED: {failures:?}");
        std::process::exit(1);
    }
}
