//! Where a result came from, so ledgers recorded on different hosts can
//! be normalised: commit, compiler, CPU, core count, seed, and the
//! same-process engine-only calibration score.

use std::process::Command;

#[derive(Debug, Clone)]
pub struct Provenance {
    pub git_sha: String,
    pub rustc: String,
    pub cpu_model: String,
    pub nproc: usize,
    pub seed: u64,
    /// Events/s of the engine-only calibration scenario in this process.
    pub calibration_events_per_s: f64,
}

/// First line of a command's stdout; "unknown" if it cannot be run
/// (the benchmark also runs in checkouts that are not git repositories).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

#[must_use]
pub fn collect(seed: u64, calibration_events_per_s: f64) -> Provenance {
    Provenance {
        git_sha: first_line("git", &["rev-parse", "HEAD"]),
        rustc: first_line("rustc", &["-V"]),
        cpu_model: cpu_model(),
        nproc: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        seed,
        calibration_events_per_s,
    }
}

impl Provenance {
    /// The provenance as the fields of a JSON object (no braces).
    #[must_use]
    pub fn json_fields(&self) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        format!(
            "\"git_sha\":\"{}\",\"rustc\":\"{}\",\"cpu_model\":\"{}\",\"nproc\":{},\"seed\":{},\"calibration_events_per_s\":{}",
            esc(&self.git_sha),
            esc(&self.rustc),
            esc(&self.cpu_model),
            self.nproc,
            self.seed,
            self.calibration_events_per_s
        )
    }
}
