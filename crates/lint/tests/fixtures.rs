//! Fixture suite: one known-bad and one known-good file per rule, the
//! allow-marker round trip, and the end-to-end guarantee that the
//! shipped workspace is lint-clean (which also proves the walker skips
//! this `fixtures/` directory — the bad fixtures would fail it
//! otherwise). The rules clippy and rustc enforce have their known-bad
//! file in `negative-control/`, which `scripts/check.sh` runs.

use std::fs;
use std::path::{Path, PathBuf};

use seaweed_lint::config::{RuleConfig, StreamDecl};
use seaweed_lint::report::Finding;
use seaweed_lint::{lint_source, lint_source_with, load_config, run_workspace};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Lints a fixture. All fixtures are audited as deterministic-crate
/// files.
fn lint_fixture(name: &str) -> Vec<Finding> {
    let src =
        fs::read_to_string(fixture_dir().join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
    lint_source(name, true, &src)
}

/// The bad fixture trips `rule` (and only it) at least twice; the good
/// twin is completely clean.
fn assert_pair(rule: &str) {
    let lower = rule.to_lowercase();
    let bad = lint_fixture(&format!("{lower}_bad.rs"));
    assert!(
        bad.len() >= 2 && bad.iter().all(|f| f.rule == rule),
        "{rule} bad fixture: expected >= 2 findings, all {rule}; got {bad:#?}"
    );
    let good = lint_fixture(&format!("{lower}_good.rs"));
    assert!(good.is_empty(), "{rule} good fixture not clean: {good:#?}");
}

#[test]
fn d005_float_sort_pair() {
    assert_pair("D005");
}

/// Lints a fixture with an explicit rule registry (D010/D011 are off
/// under the default empty registries the other pairs use).
fn lint_fixture_with(name: &str, rules: &RuleConfig) -> Vec<Finding> {
    let src =
        fs::read_to_string(fixture_dir().join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
    lint_source_with(name, true, &src, rules)
}

#[test]
fn d010_rng_stream_pair() {
    let rules = RuleConfig {
        streams: vec![StreamDecl {
            name: "topology".into(),
            pattern: "TOPOLOGY_STREAM".into(),
            path: "d010_good.rs".into(),
            line: 0,
        }],
        ..RuleConfig::default()
    };
    let bad = lint_fixture_with("d010_bad.rs", &rules);
    assert!(
        bad.len() >= 2 && bad.iter().all(|f| f.rule == "D010"),
        "{bad:#?}"
    );
    let good = lint_fixture_with("d010_good.rs", &rules);
    assert!(good.is_empty(), "{good:#?}");
}

#[test]
fn d011_metric_name_pair() {
    let rules = RuleConfig {
        metric_names: vec!["app.queries.completed".into(), "sim.app.give_up".into()],
        ..RuleConfig::default()
    };
    let bad = lint_fixture_with("d011_bad.rs", &rules);
    assert!(
        bad.len() >= 2 && bad.iter().all(|f| f.rule == "D011"),
        "{bad:#?}"
    );
    let good = lint_fixture_with("d011_good.rs", &rules);
    assert!(good.is_empty(), "{good:#?}");
}

#[test]
fn allow_markers_round_trip() {
    // Justified markers (next-line and same-line) suppress everything.
    let f = lint_fixture("allow_roundtrip.rs");
    assert!(f.is_empty(), "markers failed to suppress: {f:#?}");

    // A marker that suppresses nothing is itself a finding.
    let f = lint_fixture("allow_unused.rs");
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(f[0].rule, "D000");
    assert!(f[0].message.contains("unused"), "{}", f[0].message);

    // A reason-less marker is malformed AND does not suppress.
    let f = lint_fixture("allow_malformed.rs");
    let rules: Vec<&str> = f.iter().map(|x| x.rule).collect();
    assert!(
        rules.contains(&"D000") && rules.contains(&"D005"),
        "expected D000 + surviving D005, got {f:#?}"
    );
}

#[test]
fn shipped_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let cfg = load_config(root).expect("lint.toml parses");
    let res = run_workspace(root, &cfg).expect("workspace audit runs");
    assert!(
        res.findings.is_empty(),
        "workspace has findings:\n{}",
        res.findings
            .iter()
            .map(Finding::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The walker must have skipped this fixtures directory: had it been
    // audited, every *_bad.rs above would have failed the assertion.
    assert!(res.files > 0 && res.crates > 0);
}
