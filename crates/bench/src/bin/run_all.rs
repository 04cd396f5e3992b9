//! Runs every experiment at default (laptop) scale, in paper order.
//!
//! `cargo run --release -p seaweed-bench --bin run_all`
//!
//! Each experiment is also available as its own binary with `--n`,
//! `--seed`, `--weeks`, `--full` overrides; this driver shells out to the
//! sibling binaries so their output (and `results/*.csv`) is identical to
//! running them individually. Experiments run `--jobs` (or
//! `SEAWEED_JOBS`) at a time; each child's output is captured and printed
//! in paper order once the sweep finishes, with a progress line as each
//! child exits.

use std::process::Command;

use seaweed_bench::{jobs, run_sweep, Args};

const EXPERIMENTS: &[&str] = &[
    "tab01_params",
    "tab02_pier_availability",
    "fig01_availability",
    "fig02_predictor",
    "fig03_scalability",
    "fig04_scalability_small",
    "fig05_prediction",
    "fig06_prediction",
    "fig07_prediction",
    "fig08_prediction",
    "fig09_overheads",
    "fig10_churn",
    "lat01_predictor_latency",
    "abl01_replication_k",
    "abl02_histogram_buckets",
    "abl03_fanout",
    "abl04_periodic_threshold",
    "abl05_predictors",
    "abl06_delta_encoding",
    "chaos01_faults",
    // Last: the Farsite-scale, partitioned-executor and storm sweeps
    // dwarf everything above. scale03 stops at the 250k point here; the
    // 1M run is opt-in via `scale03_million --million 1`.
    "scale02_farsite",
    "scale03_million",
    "storm01_query_storm",
];

struct ExpOutcome {
    name: &'static str,
    ok: bool,
    secs: f64,
    stdout: Vec<u8>,
    stderr: Vec<u8>,
    note: Option<String>,
}

fn main() {
    let args = Args::parse();
    let self_path = std::env::current_exe().expect("own path");
    let bin_dir = self_path.parent().expect("bin dir");
    // Children are internally single-threaded per run (their own sweeps
    // fall back to --jobs 1 here), so process-level parallelism is the
    // only fan-out and the machine is not oversubscribed.
    let workers = jobs(&args, EXPERIMENTS.len());
    let passthrough: Vec<String> = std::env::args().skip(1).collect();
    println!(
        "running {} experiments, {workers} at a time",
        EXPERIMENTS.len()
    );
    // lint:allow(D002): operator-facing progress timing for a host-side experiment driver, never feeds simulated time
    let started = std::time::Instant::now();

    let outcomes = run_sweep(EXPERIMENTS.to_vec(), workers, |i, &exp| {
        // lint:allow(D002): operator-facing progress timing for a host-side experiment driver, never feeds simulated time
        let t0 = std::time::Instant::now();
        let out = Command::new(bin_dir.join(exp))
            .args(&passthrough)
            .args(["--jobs", "1"])
            .output();
        let outcome = match out {
            Ok(o) => ExpOutcome {
                name: exp,
                ok: o.status.success(),
                secs: t0.elapsed().as_secs_f64(),
                stdout: o.stdout,
                stderr: o.stderr,
                note: (!o.status.success()).then(|| format!("exited with {}", o.status)),
            },
            Err(e) => ExpOutcome {
                name: exp,
                ok: false,
                secs: t0.elapsed().as_secs_f64(),
                stdout: Vec::new(),
                stderr: Vec::new(),
                note: Some(format!(
                    "could not start: {e} (build with --release -p seaweed-bench first)"
                )),
            },
        };
        // Progress line in completion order; full output follows in
        // paper order below.
        println!(
            "  [{}/{}] {exp} {} in {:.1}s",
            i + 1,
            EXPERIMENTS.len(),
            if outcome.ok { "finished" } else { "FAILED" },
            outcome.secs
        );
        outcome
    });

    let mut failures = Vec::new();
    for (i, o) in outcomes.iter().enumerate() {
        println!("\n=== [{}/{}] {} ===", i + 1, EXPERIMENTS.len(), o.name);
        print!("{}", String::from_utf8_lossy(&o.stdout));
        eprint!("{}", String::from_utf8_lossy(&o.stderr));
        if o.ok {
            println!("=== {} finished in {:.1}s ===", o.name, o.secs);
        } else {
            let note = o.note.as_deref().unwrap_or("failed");
            eprintln!("=== {} FAILED: {note} ===", o.name);
            failures.push(o.name);
        }
    }
    println!(
        "\nall experiments done in {:.1}s",
        started.elapsed().as_secs_f64()
    );
    if failures.is_empty() {
        println!("every experiment completed; series are under results/");
    } else {
        eprintln!("FAILED: {failures:?}");
        std::process::exit(1);
    }
}
