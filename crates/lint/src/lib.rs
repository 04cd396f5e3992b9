#![deny(missing_debug_implementations)]
//! `seaweed-lint` — a workspace-wide determinism auditor.
//!
//! Every result this reproduction produces rests on the simulator
//! replaying byte-identically; this tool moves that contract from
//! "hope a 32-seed sweep trips a regression" to "the build refuses
//! it". It audits every workspace crate (vendored shims excluded)
//! against the rule catalogue in [`rules`] — the rules no
//! type-resolving tool can check: float-ordered sorts and the
//! `lint.toml` registries ([`config`]) — honours inline `lint:allow`
//! markers ([`allow`]), and exits nonzero on any finding.
//!
//! Run it as `cargo run -p seaweed-lint` from anywhere in the
//! workspace. `--format json` emits machine-readable output;
//! `--list-rules` prints the catalogue. See DESIGN.md "Static
//! analysis" for the rule rationale and the policy on allowlists.

pub mod allow;
pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod workspace;

use std::fs;
use std::path::Path;

use config::{Config, RuleConfig};
use report::Finding;
use rules::FileCtx;

/// Lints one in-memory source file with the default rule registries
/// (see [`RuleConfig::default`]). Convenience wrapper over
/// [`lint_source_with`] for tests and fixtures.
#[must_use]
pub fn lint_source(path: &str, deterministic: bool, src: &str) -> Vec<Finding> {
    lint_source_with(path, deterministic, src, &RuleConfig::default())
}

/// Lints one in-memory source file: lex, rule checks, inline-marker
/// application.
#[must_use]
pub fn lint_source_with(
    path: &str,
    deterministic: bool,
    src: &str,
    rules_cfg: &RuleConfig,
) -> Vec<Finding> {
    let lexed = lexer::lex(src);
    let findings = rules::check_file(&FileCtx {
        path,
        deterministic,
        tokens: &lexed.tokens,
        rules: rules_cfg,
    });
    let markers = allow::scan_markers(&lexed.comments);
    allow::apply_markers(path, findings, &markers)
}

/// Result of a workspace run.
#[derive(Debug)]
pub struct RunResult {
    /// Findings that survived their markers, sorted by (path, line,
    /// rule).
    pub findings: Vec<Finding>,
    /// Files audited.
    pub files: usize,
    /// Crates audited.
    pub crates: usize,
}

/// Audits the whole workspace rooted at `root` with `cfg`.
pub fn run_workspace(root: &Path, cfg: &Config) -> Result<RunResult, String> {
    let crates = workspace::discover(root)?;
    let mut findings: Vec<Finding> = Vec::new();
    let mut files = 0usize;
    let mut audited = 0usize;
    for c in &crates {
        if cfg.skip.contains(&c.name) {
            continue;
        }
        audited += 1;
        let deterministic = cfg.deterministic.contains(&c.name);
        for f in &c.files {
            files += 1;
            let abs = root.join(f);
            let src = fs::read_to_string(&abs).map_err(|e| format!("{}: {e}", abs.display()))?;
            let path = f.to_string_lossy().replace('\\', "/");
            findings.extend(lint_source_with(&path, deterministic, &src, &cfg.rules));
        }
    }
    findings
        .sort_by(|a, b| (a.path.clone(), a.line, a.rule).cmp(&(b.path.clone(), b.line, b.rule)));
    Ok(RunResult {
        findings,
        files,
        crates: audited,
    })
}

/// Loads `lint.toml` from the workspace root (defaults when absent).
pub fn load_config(root: &Path) -> Result<Config, String> {
    let p = root.join("lint.toml");
    if !p.is_file() {
        return Ok(Config::default());
    }
    let text = fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
    Config::parse(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_end_to_end_with_marker() {
        let bad = "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        assert_eq!(lint_source("x.rs", true, bad).len(), 1);
        let ok = format!("// lint:allow(D005): inputs are NaN-free by construction\n{bad}");
        assert!(lint_source("x.rs", true, &ok).is_empty());
    }
}
