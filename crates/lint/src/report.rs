//! Findings and output formatting (human and machine-readable).

/// One rule violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule id, e.g. `"D005"`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Finding {
    /// `path:line: [rule] message` — the human format, one per line.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Renders findings as a JSON document (hand-rolled: the workspace has
/// no serde, and the schema is three scalar fields).
#[must_use]
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            escape(f.rule),
            escape(&f.path),
            f.line,
            escape(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!("],\n  \"count\": {}\n}}\n", findings.len()));
    out
}

/// Renders findings as a SARIF 2.1.0 log (the schema GitHub code
/// scanning ingests). Hand-rolled like [`render_json`]: one run, one
/// tool driver, rule metadata from the catalogue, one result per
/// finding with a physical location.
#[must_use]
pub fn render_sarif(findings: &[Finding]) -> String {
    let mut out = String::from(
        "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n          \"name\": \"seaweed-lint\",\n          \"informationUri\": \"https://example.invalid/seaweed-lint\",\n          \"rules\": [",
    );
    for (i, (id, desc)) in crate::rules::RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
            escape(id),
            escape(desc)
        ));
    }
    out.push_str("\n          ]\n        }\n      },\n      \"results\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n        {{\n          \"ruleId\": \"{}\",\n          \"level\": \"error\",\n          \"message\": {{\"text\": \"{}\"}},\n          \"locations\": [\n            {{\n              \"physicalLocation\": {{\n                \"artifactLocation\": {{\"uri\": \"{}\", \"uriBaseId\": \"%SRCROOT%\"}},\n                \"region\": {{\"startLine\": {}}}\n              }}\n            }}\n          ]\n        }}",
            escape(f.rule),
            escape(&f.message),
            escape(&f.path),
            f.line
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n      ");
    }
    out.push_str("]\n    }\n  ]\n}\n");
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sarif_has_schema_rules_and_result_locations() {
        let f = vec![Finding {
            rule: "D005",
            path: "crates/core/src/app/x.rs".into(),
            line: 42,
            message: "`sort_by` comparator uses `partial_cmp`".into(),
        }];
        let s = render_sarif(&f);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("sarif-2.1.0.json"));
        assert!(s.contains("\"name\": \"seaweed-lint\""));
        // Every catalogue rule is declared.
        for (id, _) in crate::rules::RULES {
            assert!(s.contains(&format!("\"id\": \"{id}\"")), "{id} missing");
        }
        assert!(s.contains("\"ruleId\": \"D005\""));
        assert!(s.contains("\"startLine\": 42"));
        assert!(s.contains("\"uri\": \"crates/core/src/app/x.rs\""));
        // Clean runs still produce a valid log with an empty results
        // array (code scanning uses that to close fixed alerts).
        let empty = render_sarif(&[]);
        assert!(empty.contains("\"results\": []"));
    }

    #[test]
    fn json_escapes_and_counts() {
        let f = vec![Finding {
            rule: "D011",
            path: "a/b.rs".into(),
            line: 3,
            message: "name \"app.bogus\"".into(),
        }];
        let j = render_json(&f);
        assert!(j.contains("\\\"app.bogus\\\""));
        assert!(j.contains("\"count\": 1"));
        assert!(render_json(&[]).contains("\"count\": 0"));
    }
}
