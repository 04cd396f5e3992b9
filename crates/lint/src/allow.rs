//! Inline allowlist markers.
//!
//! A finding can be suppressed at the offending line (or the line
//! directly above it) with a comment of the form
//! `lint:allow(D010): <reason>` at the start of the comment — e.g.
//! `// lint:allow(D005): inputs are NaN-free by construction`.
//! The reason is mandatory; a marker without one is itself a finding
//! (D000), as is a marker that suppresses nothing — markers must not
//! outlive the code they excuse, and a marker naming a rule this tool
//! no longer has (D001–D004, D006–D009) can match nothing.

use crate::lexer::Comment;
use crate::report::Finding;

/// One parsed marker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowMarker {
    /// Rule ids the marker suppresses, e.g. `["D010"]`.
    pub rules: Vec<String>,
    /// Line the marker comment starts on.
    pub line: u32,
}

/// Scan result: well-formed markers plus D000 findings for malformed
/// ones.
#[derive(Debug, Default)]
pub struct MarkerScan {
    pub markers: Vec<AllowMarker>,
    pub malformed: Vec<(u32, String)>,
}

/// Extracts markers from a file's comments. Only comments whose text
/// *begins* with `lint:allow(` (after the `//`/`/*` introducer and
/// whitespace) count — prose merely mentioning the syntax does not.
#[must_use]
pub fn scan_markers(comments: &[Comment]) -> MarkerScan {
    let mut out = MarkerScan::default();
    for c in comments {
        let body = c
            .text
            .trim_start_matches('/')
            .trim_start_matches('*')
            .trim_start_matches('!')
            .trim_start();
        let Some(rest) = body.strip_prefix("lint:allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            out.malformed
                .push((c.line, "unclosed `lint:allow(`".into()));
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let bad_id = rules.iter().find(|r| !is_rule_id(r));
        if rules.is_empty() || bad_id.is_some() {
            out.malformed.push((
                c.line,
                format!("allow marker names no valid rule id: `{}`", &rest[..close]),
            ));
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            out.malformed.push((
                c.line,
                "allow marker is missing its mandatory `: <reason>`".into(),
            ));
            continue;
        }
        out.markers.push(AllowMarker {
            rules,
            line: c.line,
        });
    }
    out
}

fn is_rule_id(s: &str) -> bool {
    s.len() == 4 && s.starts_with('D') && s[1..].bytes().all(|b| b.is_ascii_digit())
}

/// Applies markers to a file's findings: suppressed findings are
/// removed; malformed and unused markers come back as D000 findings.
#[must_use]
pub fn apply_markers(path: &str, findings: Vec<Finding>, scan: &MarkerScan) -> Vec<Finding> {
    let mut used = vec![false; scan.markers.len()];
    let mut kept: Vec<Finding> = Vec::new();
    for f in findings {
        let suppressed = scan.markers.iter().enumerate().any(|(i, m)| {
            let hit =
                m.rules.iter().any(|r| r == f.rule) && (f.line == m.line || f.line == m.line + 1);
            if hit {
                used[i] = true;
            }
            hit
        });
        if !suppressed {
            kept.push(f);
        }
    }
    for (i, m) in scan.markers.iter().enumerate() {
        if !used[i] {
            kept.push(Finding {
                rule: "D000",
                path: path.to_string(),
                line: m.line,
                message: format!(
                    "unused allow marker for {}: no matching finding on this or the next line",
                    m.rules.join(", ")
                ),
            });
        }
    }
    for (line, msg) in &scan.malformed {
        kept.push(Finding {
            rule: "D000",
            path: path.to_string(),
            line: *line,
            message: msg.clone(),
        });
    }
    kept.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn parses_well_formed_markers() {
        let l = lex("// lint:allow(D010): seed mixed by the caller\nlet x = 1;");
        let s = scan_markers(&l.comments);
        assert_eq!(s.markers.len(), 1);
        assert_eq!(s.markers[0].rules, vec!["D010"]);
        assert!(s.malformed.is_empty());
    }

    #[test]
    fn multi_rule_markers() {
        let l = lex("// lint:allow(D005, D010): keys are NaN-free and the seed is mixed upstream");
        let s = scan_markers(&l.comments);
        assert_eq!(s.markers[0].rules, vec!["D005", "D010"]);
    }

    #[test]
    fn reasonless_marker_is_malformed() {
        let l = lex("// lint:allow(D005)\nlet x = 1;");
        let s = scan_markers(&l.comments);
        assert!(s.markers.is_empty());
        assert_eq!(s.malformed.len(), 1);
    }

    #[test]
    fn prose_mentioning_the_syntax_is_not_a_marker() {
        let l = lex("// markers look like `lint:allow(D005): reason`\nlet x = 1;");
        let s = scan_markers(&l.comments);
        assert!(s.markers.is_empty());
        assert!(s.malformed.is_empty());
    }

    #[test]
    fn suppression_and_unused_detection() {
        let f = vec![Finding {
            rule: "D005",
            path: "x.rs".into(),
            line: 5,
            message: "float sort".into(),
        }];
        let scan = MarkerScan {
            markers: vec![
                AllowMarker {
                    rules: vec!["D005".into()],
                    line: 4,
                },
                AllowMarker {
                    rules: vec!["D002".into()],
                    line: 9,
                },
            ],
            malformed: vec![],
        };
        let out = apply_markers("x.rs", f, &scan);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "D000");
        assert_eq!(out[0].line, 9);
    }
}
