//! Experiment output: CSV series and aligned console tables.

use std::fmt::Write as _;
use std::fs;

use crate::cli::Args;

/// The directory every deterministic output of a run lands in:
/// `--out-dir`, by default the checked-in `results`.
#[derive(Debug)]
pub struct OutDir(String);

impl OutDir {
    #[must_use]
    pub fn new(args: &Args) -> Self {
        OutDir(args.get_str("out-dir", "results"))
    }

    /// `<root>/<name>`.
    #[must_use]
    pub fn path(&self, name: &str) -> String {
        format!("{}/{name}", self.0)
    }

    /// Writes `body` to `<root>/<name>`, creating the directory, and
    /// returns the path.
    pub fn write(&self, name: &str, body: &str) -> String {
        let path = self.path(name);
        fs::create_dir_all(&self.0).unwrap_or_else(|e| panic!("create {}: {e}", self.0));
        fs::write(&path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
        path
    }

    /// Writes rows of f64 series as `<root>/<name>`, with a header row.
    pub fn write_csv(&self, name: &str, header: &[&str], rows: &[Vec<f64>]) {
        let mut out = String::new();
        writeln!(out, "{}", header.join(",")).expect("string write");
        for row in rows {
            let line: Vec<String> = row.iter().map(|v| format_num(*v)).collect();
            writeln!(out, "{}", line.join(",")).expect("string write");
        }
        let path = self.write(name, &out);
        println!("  wrote {path} ({} rows)", rows.len());
    }
}

fn format_num(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if v.abs() >= 1e7 || v.abs() < 1e-3 {
        format!("{v:.6e}")
    } else if (v - v.round()).abs() < 1e-9 {
        format!("{}", v.round() as i64)
    } else {
        format!("{v:.4}")
    }
}

/// An aligned console table.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity");
        self.rows.push(cells);
    }

    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let parts: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = *w))
                .collect();
            println!("  {}", parts.join("  "));
        };
        line(&self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("  {}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip() {
        let root = std::env::temp_dir().join(format!("seaweed-bench-{}", std::process::id()));
        let out = OutDir(root.to_str().expect("utf-8 temp dir").to_owned());
        out.write_csv("t.csv", &["a", "b"], &[vec![1.0, 2.5], vec![1e9, 0.0001]]);
        let body = std::fs::read_to_string(out.path("t.csv")).unwrap();
        let mut lines = body.lines();
        assert_eq!(lines.next(), Some("a,b"));
        assert_eq!(lines.next(), Some("1,2.5000"));
        let third = lines.next().unwrap();
        assert!(third.starts_with("1.0"), "{third}");
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn table_prints_without_panic() {
        let mut t = Table::new(&["x", "value"]);
        t.row(vec!["1".into(), "long-cell-content".into()]);
        t.print();
    }
}
