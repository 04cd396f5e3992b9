//! `seaweed-bench <experiment> [flags]`: runs one row of
//! [`seaweed_bench::exp::EXPERIMENTS`]; `seaweed-bench all` runs every
//! checked-in table and figure.

use seaweed_bench::{cli, OutDir};

fn main() {
    match cli::resolve(std::env::args()) {
        Ok((experiment, args)) => (experiment.run)(&args, &OutDir::new(&args)),
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }
}
