//! `lint.toml`: auditor scope and the D010/D011 registries.
//!
//! The workspace has no `toml` crate, so this parses the narrow subset
//! the file actually uses: `[section]` / `[[array-of-tables]]` headers,
//! `key = "string"` and `key = ["a", "b"]` arrays (which may span
//! lines). That subset is a deliberate contract — keep the file simple.
//!
//! ```toml
//! [lint]
//! skip = ["rand"]                      # vendored shims, never audited
//! deterministic = ["seaweed-core"]     # crates under D005, D010, D011
//!
//! [metrics]                            # D011 name registry
//! names = [
//!   "app.meta_pushes",
//! ]
//!
//! [[stream]]                           # D010 RNG stream registry
//! name = "faults"
//! pattern = "FAULTS_STREAM"
//! path = "crates/sim/src/faults.rs"
//! ```

/// One registered RNG stream: `pattern` is the token (a named stream
/// constant like `FAULTS_STREAM`, or the hex literal itself) that must
/// appear in the seed expression, and `path` is the one file allowed
/// to seed with it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StreamDecl {
    pub name: String,
    pub pattern: String,
    pub path: String,
    /// Line in lint.toml, for error messages.
    pub line: u32,
}

/// Registries consumed by the registry rules (D010, D011). The
/// defaults bake in the workspace's own metric emitters so single-file
/// linting (fixtures, unit tests) works without a `lint.toml`; the
/// stream and metric-name registries default to empty, which turns
/// D010/D011 off until the file declares them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleConfig {
    /// D010 stream registry (empty = rule off).
    pub streams: Vec<StreamDecl>,
    /// Metric/trace-emitting fns whose string-literal args D011 checks.
    pub metric_emitters: Vec<String>,
    /// Registered metric/trace names (empty = rule off).
    pub metric_names: Vec<String>,
}

impl Default for RuleConfig {
    fn default() -> Self {
        let v = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        RuleConfig {
            streams: Vec::new(),
            metric_emitters: v(&[
                "set_counter",
                "set_gauge",
                "observe",
                "observe_with",
                "record_app_event",
            ]),
            metric_names: Vec::new(),
        }
    }
}

#[derive(Clone, Debug)]
pub struct Config {
    /// Crate names never audited (vendored shims).
    pub skip: Vec<String>,
    /// Crate names the rules bind (every rule but D000 is
    /// determinism-only).
    pub deterministic: Vec<String>,
    /// Registries for the registry rules.
    pub rules: RuleConfig,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            skip: ["rand", "proptest", "criterion"].map(String::from).to_vec(),
            deterministic: [
                "seaweed",
                "seaweed-types",
                "seaweed-sim",
                "seaweed-overlay",
                "seaweed-store",
                "seaweed-availability",
                "seaweed-analytic",
                "seaweed-workload",
                "seaweed-core",
            ]
            .map(String::from)
            .to_vec(),
            rules: RuleConfig::default(),
        }
    }
}

impl Config {
    /// Parses `lint.toml` text. Returns `Err` with a line-tagged message
    /// on anything outside the supported subset.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section = String::new();
        for (lineno, line) in logical_lines(text)? {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(h) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
                section = format!("[[{h}]]");
                if h != "stream" {
                    return Err(format!("lint.toml:{lineno}: unknown table `[[{h}]]`"));
                }
                cfg.rules.streams.push(StreamDecl {
                    line: lineno,
                    ..StreamDecl::default()
                });
                continue;
            }
            if let Some(h) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = h.to_string();
                if h != "lint" && h != "metrics" {
                    return Err(format!("lint.toml:{lineno}: unknown section `[{h}]`"));
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("lint.toml:{lineno}: expected `key = value`"));
            };
            let (key, value) = (key.trim(), value.trim());
            let want_array = |v: &str| {
                parse_string_array(v)
                    .ok_or_else(|| format!("lint.toml:{lineno}: `{key}` wants a [\"...\"] array"))
            };
            match section.as_str() {
                "lint" => {
                    let list = want_array(value)?;
                    match key {
                        "skip" => cfg.skip = list,
                        "deterministic" => cfg.deterministic = list,
                        _ => {
                            return Err(format!(
                                "lint.toml:{lineno}: unknown key `{key}` in [lint]"
                            ))
                        }
                    }
                }
                "metrics" => {
                    let list = want_array(value)?;
                    match key {
                        "emitters" => cfg.rules.metric_emitters = list,
                        "names" => cfg.rules.metric_names = list,
                        _ => {
                            return Err(format!(
                                "lint.toml:{lineno}: unknown key `{key}` in [metrics]"
                            ))
                        }
                    }
                }
                "[[stream]]" => {
                    let s = parse_string(value)
                        .ok_or_else(|| format!("lint.toml:{lineno}: `{key}` wants a \"string\""))?;
                    let entry = cfg.rules.streams.last_mut().expect("inside [[stream]]");
                    match key {
                        "name" => entry.name = s,
                        "pattern" => entry.pattern = s,
                        "path" => entry.path = s,
                        _ => {
                            return Err(format!(
                                "lint.toml:{lineno}: unknown key `{key}` in [[stream]]"
                            ))
                        }
                    }
                }
                _ => return Err(format!("lint.toml:{lineno}: `{key}` outside any section")),
            }
        }
        for s in &cfg.rules.streams {
            if s.name.is_empty() || s.pattern.is_empty() || s.path.is_empty() {
                return Err(format!(
                    "lint.toml:{}: [[stream]] entries need `name`, `pattern` and `path`",
                    s.line
                ));
            }
        }
        Ok(cfg)
    }
}

/// Folds the raw text into logical lines: an array opened with `[` but
/// not closed on the same line swallows subsequent lines until its
/// `]`. Each logical line keeps the line number it started on.
fn logical_lines(text: &str) -> Result<Vec<(u32, String)>, String> {
    let mut out: Vec<(u32, String)> = Vec::new();
    let mut pending: Option<(u32, String)> = None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let stripped = strip_comment(raw).trim().to_string();
        match pending.take() {
            Some((start, mut acc)) => {
                acc.push(' ');
                acc.push_str(&stripped);
                if array_still_open(&acc) {
                    pending = Some((start, acc));
                } else {
                    out.push((start, acc));
                }
            }
            None => {
                if stripped.contains('=') && array_still_open(&stripped) {
                    pending = Some((lineno, stripped));
                } else {
                    out.push((lineno, stripped));
                }
            }
        }
    }
    if let Some((start, _)) = pending {
        return Err(format!("lint.toml:{start}: unterminated `[...]` array"));
    }
    Ok(out)
}

/// Does the accumulated logical line have an unclosed `[` outside
/// quotes? (Section headers never reach this: they contain no `=`.)
fn array_still_open(s: &str) -> bool {
    let mut in_str = false;
    let mut depth = 0i32;
    for c in s.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth > 0
}

fn strip_comment(line: &str) -> &str {
    // A `#` inside a quoted string does not start a comment.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(v: &str) -> Option<String> {
    let v = v.trim();
    v.strip_prefix('"')?.strip_suffix('"').map(String::from)
}

fn parse_string_array(v: &str) -> Option<Vec<String>> {
    let inner = v.trim().strip_prefix('[')?.strip_suffix(']')?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_string(part)?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scope_and_registries() {
        let cfg = Config::parse(
            r#"
# comment
[lint]
skip = ["rand", "proptest"]
deterministic = ["seaweed-core"]

[metrics]
names = [
  "app.meta_pushes",  # trailing comment
  "sim.nodes_up",
]

[[stream]]
name = "faults"
pattern = "FAULTS_STREAM"
path = "crates/sim/src/faults.rs"
"#,
        )
        .unwrap();
        assert_eq!(cfg.skip, vec!["rand", "proptest"]);
        assert_eq!(cfg.deterministic, vec!["seaweed-core"]);
        assert_eq!(
            cfg.rules.metric_names,
            vec!["app.meta_pushes", "sim.nodes_up"]
        );
        assert_eq!(cfg.rules.streams.len(), 1);
        assert_eq!(cfg.rules.streams[0].pattern, "FAULTS_STREAM");
    }

    #[test]
    fn rejects_incomplete_entries_and_unknown_keys() {
        assert!(Config::parse("[[stream]]\nname = \"faults\"\n").is_err());
        assert!(Config::parse("[lint]\nbogus = [\"x\"]\n").is_err());
        assert!(Config::parse("[wat]\n").is_err());
        // The baseline is gone: a suppression lives at the site it excuses.
        assert!(Config::parse("[[allow]]\nrule = \"D005\"\n").is_err());
    }
}
