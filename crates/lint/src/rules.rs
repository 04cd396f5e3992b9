//! The rule catalogue: what only this tool can check.
//!
//! Every rule works on the token stream of one file (see
//! [`crate::lexer`]); none require type information. D005 and the
//! registry rules D010/D011 match token shapes. All of them bind
//! deterministic crates only. What type resolution checks better — hash
//! collections, wall clocks, threads, `unsafe` — is clippy's and
//! rustc's job (the root `clippy.toml` and each crate's `[lints]` table;
//! DESIGN.md §5).

use crate::config::RuleConfig;
use crate::lexer::{Token, TokenKind};
use crate::report::Finding;

/// Per-file context handed to every rule.
#[derive(Debug)]
pub struct FileCtx<'a> {
    /// Workspace-relative path (used in findings).
    pub path: &'a str,
    /// Whether the file belongs to a deterministic crate (the simulator
    /// and everything it drives must replay byte-identically).
    pub deterministic: bool,
    pub tokens: &'a [Token],
    /// Registries for D010 and D011.
    pub rules: &'a RuleConfig,
}

/// Rule ids in catalogue order, for `--list-rules`.
pub const RULES: &[(&str, &str)] = &[
    ("D000", "allow-marker hygiene: malformed, reason-less or unused markers"),
    ("D005", "no float-ordered sorts via partial_cmp in deterministic crates — use total_cmp"),
    ("D010", "RNG stream discipline: every seed_from_u64 in a deterministic crate must mix a registered stream constant, used only in its declared subsystem file"),
    ("D011", "metrics/trace name registry: counter/gauge/trace-event name literals passed to emitter fns must be declared in lint.toml [metrics]"),
];

/// Comparator-taking sort/ordering functions D005 inspects.
const CMP_FNS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "binary_search_by",
    "max_by",
    "min_by",
];

/// Runs every rule over one file of a deterministic crate; other
/// crates get marker hygiene (D000, [`crate::allow`]) only.
#[must_use]
pub fn check_file(ctx: &FileCtx) -> Vec<Finding> {
    if !ctx.deterministic {
        return Vec::new();
    }
    let mut out = Vec::new();
    d005_partial_cmp_sorts(ctx, &mut out);
    d010_rng_streams(ctx, &mut out);
    d011_metric_names(ctx, &mut out);
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

fn finding(ctx: &FileCtx, rule: &'static str, line: u32, message: String) -> Finding {
    Finding {
        rule,
        path: ctx.path.to_string(),
        line,
        message,
    }
}

fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == s
}

fn is_punct(t: &Token, c: char) -> bool {
    t.kind == TokenKind::Punct && t.text.as_bytes()[0] == c as u8
}

// --------------------------------------------------------------- D005

fn d005_partial_cmp_sorts(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let tokens = ctx.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || !CMP_FNS.contains(&t.text.as_str()) {
            continue;
        }
        let Some(open) = tokens.get(i + 1) else {
            continue;
        };
        if !is_punct(open, '(') {
            continue;
        }
        let mut depth = 1i32;
        let mut j = i + 2;
        while j < tokens.len() && depth > 0 {
            let u = &tokens[j];
            if is_punct(u, '(') {
                depth += 1;
            } else if is_punct(u, ')') {
                depth -= 1;
            } else if is_ident(u, "partial_cmp") {
                out.push(finding(
                    ctx,
                    "D005",
                    t.line,
                    format!(
                        "`{}` comparator uses `partial_cmp`; NaN makes the order partial and \
                         platform/input dependent — use `f64::total_cmp`",
                        t.text
                    ),
                ));
                break;
            }
            j += 1;
        }
    }
}

// --------------------------------------------------------------- D010

/// Paths whose code is outside the deterministic replay surface: test,
/// bench and example trees draw from ad-hoc seeds by design.
fn is_test_path(path: &str) -> bool {
    let p = path.replace('\\', "/");
    ["tests/", "benches/", "examples/"]
        .iter()
        .any(|d| p.starts_with(d) || p.contains(&format!("/{d}")))
}

/// Index of the first `#[cfg(test)]` attribute, or `usize::MAX`; the
/// registry rules ignore tokens past it (unit-test modules sit at the
/// end of a file by workspace convention).
fn cfg_test_boundary(tokens: &[Token]) -> usize {
    for i in 0..tokens.len() {
        if is_punct(&tokens[i], '#')
            && tokens.get(i + 1).is_some_and(|t| is_punct(t, '['))
            && tokens.get(i + 2).is_some_and(|t| is_ident(t, "cfg"))
            && tokens.get(i + 3).is_some_and(|t| is_punct(t, '('))
            && tokens.get(i + 4).is_some_and(|t| is_ident(t, "test"))
        {
            return i;
        }
    }
    usize::MAX
}

fn d010_rng_streams(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let streams = &ctx.rules.streams;
    if streams.is_empty() || is_test_path(ctx.path) {
        return;
    }
    let tokens = ctx.tokens;
    let boundary = cfg_test_boundary(tokens);
    for (i, t) in tokens.iter().enumerate() {
        if i >= boundary {
            break;
        }
        if !is_ident(t, "seed_from_u64") || !tokens.get(i + 1).is_some_and(|u| is_punct(u, '(')) {
            continue;
        }
        // Collect the argument tokens up to the matching `)`.
        let mut depth = 1i32;
        let mut j = i + 2;
        let arg_lo = j;
        while j < tokens.len() && depth > 0 {
            if is_punct(&tokens[j], '(') {
                depth += 1;
            } else if is_punct(&tokens[j], ')') {
                depth -= 1;
            }
            j += 1;
        }
        let args = &tokens[arg_lo..j.saturating_sub(1).max(arg_lo)];
        let hit = streams
            .iter()
            .find(|s| args.iter().any(|a| a.text == s.pattern));
        match hit {
            None => out.push(finding(
                ctx,
                "D010",
                t.line,
                "`seed_from_u64` without a registered stream constant in the seed \
                 expression; declare the subsystem's stream in lint.toml [[stream]] \
                 and mix it in (seed ^ STREAM) so draw order survives refactors"
                    .into(),
            )),
            Some(s) if s.path != ctx.path => out.push(finding(
                ctx,
                "D010",
                t.line,
                format!(
                    "RNG stream `{}` ({}) is declared for `{}` but seeded here — \
                     each subsystem draws only from its own stream",
                    s.name, s.pattern, s.path,
                ),
            )),
            Some(_) => {}
        }
    }
}

// --------------------------------------------------------------- D011

fn d011_metric_names(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let r = ctx.rules;
    if r.metric_names.is_empty() || r.metric_emitters.is_empty() || is_test_path(ctx.path) {
        return;
    }
    let tokens = ctx.tokens;
    let boundary = cfg_test_boundary(tokens);
    for (i, t) in tokens.iter().enumerate() {
        if i >= boundary {
            break;
        }
        if t.kind != TokenKind::Ident
            || !r.metric_emitters.contains(&t.text)
            || !tokens.get(i + 1).is_some_and(|u| is_punct(u, '('))
        {
            continue;
        }
        // Every string literal among the call's arguments must be a
        // registered name (emitters take only name strings as text).
        let mut depth = 1i32;
        let mut j = i + 2;
        while j < tokens.len() && depth > 0 {
            let u = &tokens[j];
            if is_punct(u, '(') {
                depth += 1;
            } else if is_punct(u, ')') {
                depth -= 1;
            } else if u.kind == TokenKind::Literal && u.text.starts_with('"') {
                let name = u.text.trim_matches('"');
                if !r.metric_names.iter().any(|n| n == name) {
                    out.push(finding(
                        ctx,
                        "D011",
                        u.line,
                        format!(
                            "metric/trace name \"{name}\" passed to `{}` is not in the \
                             lint.toml [metrics] registry — declare it there (and in \
                             DESIGN.md) or fix the typo",
                            t.text,
                        ),
                    ));
                }
            }
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check(src: &str, deterministic: bool) -> Vec<Finding> {
        check_rules(src, deterministic, &RuleConfig::default())
    }

    fn check_rules(src: &str, deterministic: bool, rules: &RuleConfig) -> Vec<Finding> {
        let lexed = lex(src);
        check_file(&FileCtx {
            path: "test.rs",
            deterministic,
            tokens: &lexed.tokens,
            rules,
        })
    }

    #[test]
    fn d005_partial_cmp_sorts() {
        let f = check(
            "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }",
            true,
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "D005");
        assert!(check("fn f(v: &mut [f64]) { v.sort_by(f64::total_cmp); }", true).is_empty());
        assert!(
            check(
                "fn f(a: f64, b: f64) -> bool { a.partial_cmp(&b).is_some() }",
                true
            )
            .is_empty(),
            "partial_cmp outside a sort comparator is not D005"
        );
    }

    fn rules_with_stream(path: &str) -> RuleConfig {
        RuleConfig {
            streams: vec![crate::config::StreamDecl {
                name: "topology".into(),
                pattern: "TOPOLOGY_STREAM".into(),
                path: path.into(),
                line: 0,
            }],
            ..RuleConfig::default()
        }
    }

    #[test]
    fn d010_stream_registry() {
        // Registry empty: rule is off.
        assert!(check("fn f() { let r = Rng::seed_from_u64(seed); }", true).is_empty());
        let r = rules_with_stream("test.rs");
        let clean = "fn f() { let r = Rng::seed_from_u64(seed ^ TOPOLOGY_STREAM); }";
        assert!(check_rules(clean, true, &r).is_empty());
        let bare = "fn f() { let r = Rng::seed_from_u64(seed); }";
        let f = check_rules(bare, true, &r);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "D010");
        // Stream declared for a different file: using it here is a leak
        // across subsystems.
        let elsewhere = rules_with_stream("crates/sim/src/topology.rs");
        let f = check_rules(clean, true, &elsewhere);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("declared for"));
    }

    #[test]
    fn d011_metric_name_registry() {
        // Registry empty: rule is off.
        let src = r#"fn f(eng: &mut E) { eng.set_counter(n, "app.bogus", 1); }"#;
        assert!(check(src, true).is_empty());
        let r = RuleConfig {
            metric_names: vec!["app.known".into()],
            ..RuleConfig::default()
        };
        let f = check_rules(src, true, &r);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "D011");
        assert!(f[0].message.contains("app.bogus"));
        let ok = r#"fn f(eng: &mut E) { eng.set_counter(n, "app.known", 1); }"#;
        assert!(check_rules(ok, true, &r).is_empty());
        // Unit tests below a #[cfg(test)] boundary are exempt.
        let test_mod = "#[cfg(test)]\nmod tests { fn f(eng: &mut E) { eng.set_counter(n, \"app.bogus\", 1); } }";
        assert!(check_rules(test_mod, true, &r).is_empty());
    }
}
