//! The `BENCH_*.json` twin of a CSV: the same points plus the
//! machine-dependent numbers (wall seconds, events/s, peak RSS).
//!
//! One writer for every experiment. A report is a few header fields
//! and a list of points; each is an ordered list of `(key, value)` pairs
//! and is written in exactly that order, integers as integers (a `u64`
//! never passes through `f64`) and floats with the decimals the caller
//! chose, so a re-recorded file diffs cleanly against the checked-in one.
//! Hand-rolled: the build environment has no serde.

use std::fmt::Write as _;

/// One JSON scalar.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Int(u64),
    /// Rendered with exactly this many decimals.
    Fixed(f64, usize),
    Text(String),
    Flag(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as u64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Flag(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}

/// Ordered `(key, value)` pairs: a report's header, or one point.
pub type Fields = Vec<(&'static str, Value)>;

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Fixed(x, decimals) => {
                assert!(x.is_finite(), "JSON has no NaN or infinity");
                write!(f, "{x:.decimals$}")
            }
            Value::Flag(b) => write!(f, "{b}"),
            Value::Text(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
                        c => write!(f, "{c}")?,
                    }
                }
                f.write_str("\"")
            }
        }
    }
}

/// The report as text: one header field per line, then one point per
/// line under `"points"`.
#[must_use]
pub fn render(header: &[(&'static str, Value)], points: &[Fields]) -> String {
    let mut out = String::from("{\n");
    for (key, v) in header {
        writeln!(out, "  \"{key}\": {v},").expect("string write");
    }
    out.push_str("  \"points\": [\n");
    for (i, point) in points.iter().enumerate() {
        let fields: Vec<String> = point
            .iter()
            .map(|(key, v)| format!("\"{key}\": {v}"))
            .collect();
        let comma = if i + 1 == points.len() { "" } else { "," };
        writeln!(out, "    {{{}}}{comma}", fields.join(", ")).expect("string write");
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes the report to `path`, creating its directory.
pub fn write_report(path: &str, header: &[(&'static str, Value)], points: &[Fields]) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).expect("create report dir");
    }
    std::fs::write(path, render(header, points)).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("  wrote {path}");
}

/// `count` per wall-clock second, for the events/s columns.
#[must_use]
pub fn per_second(count: u64, wall_s: f64) -> f64 {
    count as f64 / wall_s.max(1e-9)
}

/// Process peak resident set (VmHWM) in bytes; 0 where /proc is absent.
/// Monotone over process lifetime, so sweeps run their points in
/// ascending size and each figure is "peak RSS so far".
#[must_use]
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact text, so key order, separators and number rendering are
    /// all pinned: keys come out in the order given (not sorted), a
    /// `u64` above 2^53 keeps every digit, a float keeps the decimals it
    /// was given. The literal parses as JSON (checked with a real
    /// parser when it was written); the shape is that of the checked-in
    /// `BENCH_scale03.json`.
    #[test]
    fn report_is_ordered_exact_and_well_formed() {
        let big = (1u64 << 53) + 1;
        let header: Fields = vec![
            ("bench", "scale03_million".into()),
            ("seed", 42u64.into()),
            ("k1_byte_identical", true.into()),
        ];
        let points: Vec<Fields> = vec![
            vec![
                ("n", 51_663usize.into()),
                ("mode", "serial".into()),
                ("wall_s", Value::Fixed(78.2139, 3)),
                ("events_per_s", Value::Fixed(112_910.6, 0)),
                ("peak_rss_bytes", big.into()),
            ],
            vec![
                ("zeta", 1u64.into()),
                ("alpha", "a \"quoted\\\" tab\t".into()),
            ],
        ];
        let text = render(&header, &points);
        assert_eq!(
            text,
            concat!(
                "{\n",
                "  \"bench\": \"scale03_million\",\n",
                "  \"seed\": 42,\n",
                "  \"k1_byte_identical\": true,\n",
                "  \"points\": [\n",
                "    {\"n\": 51663, \"mode\": \"serial\", \"wall_s\": 78.214, ",
                "\"events_per_s\": 112911, \"peak_rss_bytes\": 9007199254740993},\n",
                "    {\"zeta\": 1, \"alpha\": \"a \\\"quoted\\\\\\\" tab\\u0009\"}\n",
                "  ]\n",
                "}\n",
            )
        );
        // An f64 could not have carried that integer.
        assert_ne!((big as f64) as u64, big);
        // Braces, brackets and quotes balance outside strings.
        let (mut depth, mut in_str, mut escaped) = (0i32, false, false);
        for c in text.chars() {
            match (in_str, escaped, c) {
                (true, true, _) => escaped = false,
                (true, false, '\\') => escaped = true,
                (_, false, '"') => in_str = !in_str,
                (false, _, '{' | '[') => depth += 1,
                (false, _, '}' | ']') => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert!(depth == 0 && !in_str);
    }
}
