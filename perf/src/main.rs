//! The Seaweed benchmark: one workload per process, measured from
//! outside through the library crates' public functions.
//!
//! `perf --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! repeats the workload's fixed scenario (set-up and timed phase) until
//! `s` seconds have passed (an untraced full-size run at least twice),
//! checks the outputs, and prints every metric
//! as `name value unit` followed by one JSON object on the last line.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! scenario with the classifying drive loop, the timed provider/shard
//! wrappers and the counting allocator, and reports the per-layer ledger.

mod alloc;
mod classify;
mod drive;
mod hostprobe;
mod ledger;
mod outcome;
mod provenance;
mod report;
mod stats;
mod timed;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use workloads::{Size, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// An untraced full-size run repeats its scenario at least this often, so
/// that each slice of the timed phase has a sample a neighbour on the
/// shared host did not slow (see `hostprobe`).
const MIN_REPS: usize = 2;
/// Engine-only calibration runs before the first repetition and after
/// the last; an untraced run takes more between the slices of its timed
/// phases (see `workloads::Host`).
const CALIBRATIONS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut size = Size::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => size = Size::Smoke,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
        size,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            eprintln!(
                "usage: perf --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds.max(0.0));
    let started = Instant::now();

    // Each repetition rebuilds everything from the seed, so set-up is
    // measured as often as the timed phase. A traced run starts with
    // one untraced repetition: the reference its overhead is taken
    // against (and the calibration score its provenance carries).
    let mut plain = report::Reps::default();
    let mut traced = report::Reps::default();
    // End-to-end host times are expressed in reference-host seconds (see
    // `hostprobe`); the traced run reports raw ratios and nanoseconds.
    let host = workloads::Host::new(args.seed, args.size);
    let beside = (!args.traced).then_some(&host);
    // First of all, on an untouched heap: the engine-only calibration.
    for _ in 0..CALIBRATIONS {
        host.calibrate();
    }
    loop {
        if !args.traced {
            // Set-up is short beside the timed phase, so each repetition
            // is preceded by one more sample of it alone.
            plain
                .setups
                .push(args.workload.set_up(args.seed, args.size, beside));
        }
        if !args.traced || plain.outcomes.is_empty() {
            plain
                .outcomes
                .push(args.workload.run(args.seed, args.size, false, beside));
            if plain.outcomes.len() == 1 {
                // Of one repetition: later ones add what the allocator
                // keeps.
                plain.peak_rss_mb = workloads::rss_mb("VmHWM:");
            }
        }
        if args.traced {
            alloc::enable();
            let out = args.workload.run(args.seed, args.size, true, None);
            alloc::disable();
            traced.outcomes.push(out);
        }
        let enough = args.traced || args.size == Size::Smoke || plain.outcomes.len() >= MIN_REPS;
        if started.elapsed() >= budget && enough {
            break;
        }
    }
    if !args.traced {
        for _ in 0..CALIBRATIONS {
            host.calibrate();
        }
    }
    plain.calibrations = host.calibrations.take();
    plain.quiet_probe_s = beside.map_or(0.0, |h| h.probe.quiet_s());

    let info = report::RunInfo {
        workload: args.workload,
        seed: args.seed,
        traced: args.traced,
        smoke: args.size == Size::Smoke,
    };
    let result = report::RunResult::build(&info, &plain, &traced);
    result.print();
    if let Err(e) = result.write_artifacts() {
        eprintln!("perf: writing artifacts: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
