#![forbid(unsafe_code)]
//! Experiment harness: regenerates every table and figure in the paper's
//! evaluation (§4), plus ablations. One binary per experiment lives in
//! `src/bin/`; Criterion micro-benchmarks live in `benches/`.
//!
//! Experiments write CSV series into `results/` and print the headline
//! numbers (the ones quoted in the paper's prose) to stdout. Default
//! scales are laptop-sized; every binary takes `--full` to run at the
//! paper's scale, and `--n/--seed/--weeks` style overrides. See
//! EXPERIMENTS.md for the mapping and recorded outcomes.

pub mod cli;
pub mod counters;
pub mod figures;
pub mod fullsim;
pub mod output;
pub mod parallel;
pub mod predsim;
pub mod report;

pub use cli::Args;
pub use output::{write_csv, Table as OutTable};
pub use parallel::{jobs, run_sweep};
