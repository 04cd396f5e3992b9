//! Experiment harness: regenerates every table and figure in the paper's
//! evaluation (§4), plus ablations. One executable, `seaweed-bench
//! <experiment> [flags]`, dispatches through the [`exp::EXPERIMENTS`]
//! table; each experiment is a module under [`exp`]. Criterion
//! micro-benchmarks live in `benches/`.
//!
//! Experiments write CSV series into one output directory (`--out-dir`,
//! by default the checked-in `results/`) and print the headline numbers
//! (the ones quoted in the paper's prose) to stdout. Default scales are
//! laptop-sized; `--full` runs at the paper's scale, and `--n` / `--seed`
//! / `--weeks` style overrides apply per experiment. See EXPERIMENTS.md
//! for the mapping and recorded outcomes.

pub mod cli;
pub mod counters;
pub mod exp;
pub mod figures;
pub mod fullsim;
pub mod output;
pub mod parallel;
pub mod predsim;
pub mod report;

pub use cli::Args;
pub use output::{OutDir, Table as OutTable};
pub use parallel::{jobs, run_sweep};
