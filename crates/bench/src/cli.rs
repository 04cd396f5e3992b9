//! Command-line parsing for `seaweed-bench <experiment> [flags]`.
//!
//! Hand-rolled on purpose — the permitted dependency set has no CLI
//! crate, and the needs are trivial: an experiment name, `--flag value`
//! pairs and boolean switches. What it does not know it rejects, before
//! any simulation starts: a mistyped flag must not run the default
//! experiment under the wrong name.

use std::collections::HashMap;

use crate::exp::{Experiment, EXPERIMENTS};

/// What follows a flag on the command line.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    /// Nothing: the flag's presence is its value.
    Switch,
    /// An unsigned integer (a count, a size or a seed).
    Number,
    /// Any string (a path or a mode name).
    Text,
}

/// Every flag some experiment reads, and what it takes. One list for all
/// of them, because `all` hands its flags to every child.
const FLAGS: &[(&str, Kind)] = &[
    ("base", Kind::Number),
    ("days", Kind::Number),
    ("farsite-n", Kind::Number),
    ("full", Kind::Switch),
    ("hours", Kind::Number),
    ("jobs", Kind::Number),
    ("json", Kind::Text),
    ("max-k", Kind::Number),
    ("max-n", Kind::Number),
    ("million", Kind::Number),
    ("mode", Kind::Text),
    ("n", Kind::Number),
    ("out-dir", Kind::Text),
    ("part", Kind::Text),
    ("parts", Kind::Number),
    ("points", Kind::Number),
    ("routers", Kind::Number),
    ("seed", Kind::Number),
    ("seeds", Kind::Number),
    ("weeks", Kind::Number),
    ("workers", Kind::Number),
];

fn kind_of(flag: &str) -> Option<Kind> {
    FLAGS
        .iter()
        .find(|(name, _)| *name == flag)
        .map(|&(_, kind)| kind)
}

/// What would have been accepted, for the end of every rejection.
fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let flags: Vec<String> = FLAGS.iter().map(|(name, _)| format!("--{name}")).collect();
    format!(
        "usage: seaweed-bench <experiment> [--flag value]...\nexperiments: {}\nflags: {}",
        names.join(" "),
        flags.join(" ")
    )
}

/// Resolves a command line (first item = program name) to the registry
/// row it names and its flags.
///
/// # Errors
/// A missing or unknown experiment name, an unknown flag, a value flag
/// without its value, a number flag whose value is not one, or a stray
/// positional argument; the message ends with what would have been
/// accepted.
pub fn resolve<I: IntoIterator<Item = String>>(
    argv: I,
) -> Result<(&'static Experiment, Args), String> {
    let mut argv = argv.into_iter().skip(1);
    let name = argv.next().ok_or_else(usage)?;
    let experiment = EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| format!("unknown experiment: {name}\n{}", usage()))?;
    Ok((experiment, Args::parse_flags(argv)?))
}

/// Parsed flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parses the flags after the experiment name.
    ///
    /// # Errors
    /// See [`resolve`].
    pub fn parse_flags<I: IntoIterator<Item = String>>(flags: I) -> Result<Self, String> {
        let mut args = Args::default();
        let mut it = flags.into_iter();
        while let Some(arg) = it.next() {
            let Some(flag) = arg.strip_prefix("--") else {
                return Err(format!("stray argument: {arg}\n{}", usage()));
            };
            match kind_of(flag) {
                None => return Err(format!("unknown flag: {arg}\n{}", usage())),
                Some(Kind::Switch) => args.switches.push(flag.to_owned()),
                Some(kind) => {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("{arg} needs a value\n{}", usage()))?;
                    if kind == Kind::Number && value.parse::<u64>().is_err() {
                        return Err(format!("{arg} takes a number, not {value}\n{}", usage()));
                    }
                    args.values.insert(flag.to_owned(), value);
                }
            }
        }
        Ok(args)
    }

    /// Is a boolean switch present (e.g. `--full`)?
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        assert_eq!(kind_of(name), Some(Kind::Switch), "--{name} in FLAGS");
        self.switches.iter().any(|s| s == name)
    }

    /// A number flag's value as `T`, with a default.
    ///
    /// # Panics
    /// `T` cannot hold the value, which was checked to be an unsigned
    /// integer when the command line was parsed: the caller asked for a
    /// narrower type than `FLAGS` promises.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: std::fmt::Display,
    {
        match self.raw(name, Kind::Number) {
            None => default,
            Some(raw) => raw.parse().unwrap_or_else(|e| {
                panic!("bad value for --{name}: {raw} ({e})");
            }),
        }
    }

    /// A text flag's value, with a default.
    #[must_use]
    pub fn get_str(&self, name: &str, default: &str) -> String {
        self.raw(name, Kind::Text).unwrap_or(default).to_owned()
    }

    fn raw(&self, name: &str, kind: Kind) -> Option<&str> {
        assert_eq!(kind_of(name), Some(kind), "--{name} in FLAGS");
        self.values.get(name).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve_line(line: &[&str]) -> Result<(&'static Experiment, Args), String> {
        resolve(
            std::iter::once("prog")
                .chain(line.iter().copied())
                .map(str::to_owned),
        )
    }

    #[test]
    fn values_switches_and_defaults() {
        let (exp, a) =
            resolve_line(&["fig10_churn", "--n", "500", "--full", "--out-dir", "x"]).unwrap();
        assert_eq!(exp.name, "fig10_churn");
        assert_eq!(a.get("n", 100usize), 500);
        assert_eq!(a.get("seed", 7u64), 7);
        assert!(a.has("full"));
        assert_eq!(a.get_str("out-dir", "d"), "x");
        assert_eq!(a.get_str("mode", "both"), "both");
        assert!(!resolve_line(&["fig10_churn"]).unwrap().1.has("full"));
    }

    #[test]
    fn non_number_for_a_number_flag_is_rejected() {
        let err = resolve_line(&["fig10_churn", "--n", "xyz"]).unwrap_err();
        assert!(err.starts_with("--n takes a number, not xyz"), "{err}");
        assert!(err.contains("usage:"), "{err}");
        assert!(resolve_line(&["fig10_churn", "--seed", "-7"]).is_err());
        // Text flags take anything.
        let (_, a) = resolve_line(&["fig09_overheads", "--part", "7a"]).unwrap();
        assert_eq!(a.get_str("part", "all"), "7a");
    }

    #[test]
    fn unknown_flag_is_rejected_naming_the_accepted_ones() {
        let err = resolve_line(&["fig10_churn", "--sed", "7"]).unwrap_err();
        assert!(err.starts_with("unknown flag: --sed"), "{err}");
        assert!(err.contains("--seed"), "{err}");
        // The flags of the former per-bin outputs went with them.
        assert!(resolve_line(&["chaos01_faults", "--out", "x.csv"]).is_err());
    }

    #[test]
    fn stray_positional_is_rejected() {
        let err = resolve_line(&["fig10_churn", "--full", "1200"]).unwrap_err();
        assert!(err.starts_with("stray argument: 1200"), "{err}");
        let err = resolve_line(&["fig10_churn", "fig09_overheads"]).unwrap_err();
        assert!(err.starts_with("stray argument: fig09_overheads"), "{err}");
        let err = resolve_line(&["fig10_churn", "--n"]).unwrap_err();
        assert!(err.starts_with("--n needs a value"), "{err}");
    }

    #[test]
    fn unknown_experiment_is_rejected_naming_the_registry() {
        let err = resolve_line(&["fig11_churn"]).unwrap_err();
        assert!(err.starts_with("unknown experiment: fig11_churn"), "{err}");
        assert!(err.contains("fig10_churn") && err.contains(" all"), "{err}");
        assert!(resolve_line(&[]).unwrap_err().starts_with("usage:"));
        assert!(resolve_line(&["--seed", "7"]).is_err());
    }
}
