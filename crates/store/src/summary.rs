//! Per-endsystem data summaries — the "h" metadata of Table 1.
//!
//! A [`DataSummary`] is what an endsystem pushes to its metadata replica
//! set: histograms on every indexed column plus the fragment's row count.
//! When a query's completeness predictor is generated on behalf of an
//! *unavailable* endsystem, its replicated summary answers "how many rows
//! relevant to this query does that endsystem hold?" (§3.2.2). The
//! Anemone deployment replicated 5 histograms per endsystem totalling
//! h = 6,473 bytes.

use crate::histogram::ColumnHistogram;
use crate::sql::BoundQuery;
use crate::table::Table;

/// Default bucket budget per histogram (SQL Server uses up to 200 steps;
/// 64 keeps h near the paper's reported size at our workload scale).
pub const DEFAULT_BUCKETS: usize = 64;

/// Replicable summary of one endsystem's fragment of one table. An
/// endsystem rebuilds the whole summary when its fragment changes.
#[derive(Clone, Debug, PartialEq)]
pub struct DataSummary {
    /// Total rows in the fragment.
    row_count: u64,
    /// `(column index, histogram)` for each indexed column.
    histograms: Vec<(usize, ColumnHistogram)>,
}

impl DataSummary {
    /// Builds the summary for a table fragment (histograms on indexed
    /// columns only, as in the paper).
    #[must_use]
    pub fn build(table: &Table) -> Self {
        Self::build_with_buckets(table, DEFAULT_BUCKETS)
    }

    /// Builds with an explicit per-histogram bucket budget (used by the
    /// `abl02_histogram_buckets` ablation).
    #[must_use]
    pub fn build_with_buckets(table: &Table, buckets: usize) -> Self {
        let histograms = table
            .schema()
            .indexed_columns()
            .into_iter()
            .map(|col| (col, ColumnHistogram::build(table.column(col), buckets)))
            .collect();
        DataSummary {
            row_count: table.num_rows() as u64,
            histograms,
        }
    }

    /// Estimates the number of rows in this fragment matching a bound
    /// query. Conjunction selectivities are combined under the standard
    /// attribute-independence assumption; predicates on non-indexed
    /// columns fall back to fixed selectivities (equality 10%, range ⅓ —
    /// textbook defaults).
    #[must_use]
    pub fn estimate_rows(&self, query: &BoundQuery) -> f64 {
        if self.row_count == 0 {
            return 0.0;
        }
        let total = self.row_count as f64;
        let mut selectivity = 1.0f64;
        for p in &query.predicates {
            let sel = match self.histogram_for(p.column) {
                Some(h) if h.total() > 0 => h
                    .estimate(p.op, &p.value)
                    .map(|rows| rows / h.total() as f64)
                    .unwrap_or(1.0 / 3.0),
                _ => match p.op {
                    crate::sql::CmpOp::Eq => 0.1,
                    crate::sql::CmpOp::Ne => 0.9,
                    _ => 1.0 / 3.0,
                },
            };
            selectivity *= sel.clamp(0.0, 1.0);
        }
        total * selectivity
    }

    /// Total rows in the summarized fragment.
    #[must_use]
    pub fn row_count(&self) -> u64 {
        self.row_count
    }

    /// `(column index, histogram)` for each indexed column.
    #[must_use]
    pub fn histograms(&self) -> &[(usize, ColumnHistogram)] {
        &self.histograms
    }

    /// The histogram for a column, if that column is indexed.
    #[must_use]
    pub fn histogram_for(&self, column: usize) -> Option<&ColumnHistogram> {
        self.histograms
            .iter()
            .find(|(c, _)| *c == column)
            .map(|(_, h)| h)
    }

    /// Serialized size in bytes — what metadata replication pays per push.
    #[must_use]
    pub fn wire_size(&self) -> u32 {
        8 + self
            .histograms
            .iter()
            .map(|(_, h)| 4 + h.wire_size())
            .sum::<u32>()
    }

    /// Size of a delta encoding against the previously pushed version —
    /// the §3.2.2 optimization ("sending delta-encoded histograms ...
    /// could reduce network overhead compared to pushing the entire
    /// histogram"). Unchanged histograms cost one presence bit; changed
    /// ones cost their per-bucket delta.
    #[must_use]
    pub fn delta_wire_size(&self, prev: &DataSummary) -> u32 {
        let mut size = 8u32 + self.histograms.len().div_ceil(8) as u32;
        for (col, h) in &self.histograms {
            match prev.histogram_for(*col) {
                Some(ph) if ph == h => {}
                Some(ph) => size += 4 + h.delta_wire_size(ph),
                None => size += 4 + h.wire_size(),
            }
        }
        size.min(self.wire_size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::count_matching;
    use crate::schema::{ColumnDef, Schema};
    use crate::sql::Query;
    use crate::value::{DataType, Value};

    fn flow_table(rows: usize) -> Table {
        let schema = Schema::new(
            "Flow",
            vec![
                ColumnDef::new("ts", DataType::Int, true),
                ColumnDef::new("SrcPort", DataType::Int, true),
                ColumnDef::new("Bytes", DataType::Int, true),
                ColumnDef::new("App", DataType::Str, true),
                ColumnDef::new("Scratch", DataType::Int, false),
            ],
        );
        let mut t = Table::new(schema);
        for i in 0..rows {
            let port = match i % 10 {
                0..=5 => 80,
                6..=7 => 443,
                _ => 445,
            };
            let app = match port {
                80 => "HTTP",
                443 => "HTTPS",
                _ => "SMB",
            };
            let bytes = ((i * 37) % 50_000) as i64;
            t.insert(vec![
                Value::Int(i as i64),
                Value::Int(port),
                Value::Int(bytes),
                Value::from(app),
                Value::Int((i % 7) as i64),
            ])
            .unwrap();
        }
        t
    }

    fn estimate_vs_truth(sql: &str) -> (f64, u64) {
        let t = flow_table(5_000);
        let q = Query::parse(sql).unwrap().bind(t.schema(), 0).unwrap();
        let summary = DataSummary::build(&t);
        (summary.estimate_rows(&q), count_matching(&q, &t))
    }

    #[test]
    fn paper_style_queries_estimate_well() {
        // §4.3.2: "the prediction error for total row count is under 0.5%
        // in all cases" for single-indexed-column predicates. Hold single-
        // predicate estimates to 1% of the fragment here.
        for sql in [
            "SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80",
            "SELECT COUNT(*) FROM Flow WHERE Bytes > 20000",
            "SELECT AVG(Bytes) FROM Flow WHERE App='SMB'",
            "SELECT COUNT(*) FROM Flow WHERE SrcPort < 1024",
        ] {
            let (est, truth) = estimate_vs_truth(sql);
            let err = (est - truth as f64).abs() / 5_000.0;
            assert!(err < 0.01, "{sql}: est {est:.1} truth {truth}");
        }
    }

    #[test]
    fn conjunction_estimates_reasonably() {
        let (est, truth) =
            estimate_vs_truth("SELECT COUNT(*) FROM Flow WHERE SrcPort=80 AND Bytes > 25000");
        // Independence holds by construction here; allow 5%.
        let err = (est - truth as f64).abs() / 5_000.0;
        assert!(err < 0.05, "est {est:.1} truth {truth}");
    }

    #[test]
    fn non_indexed_column_falls_back() {
        let (est, _) = estimate_vs_truth("SELECT COUNT(*) FROM Flow WHERE Scratch = 3");
        // Fallback equality selectivity is 10% of 5000.
        assert!((est - 500.0).abs() < 1e-9);
    }

    #[test]
    fn empty_table_estimates_zero() {
        let t = flow_table(0);
        let q = Query::parse("SELECT COUNT(*) FROM Flow WHERE SrcPort=80")
            .unwrap()
            .bind(t.schema(), 0)
            .unwrap();
        assert_eq!(DataSummary::build(&t).estimate_rows(&q), 0.0);
    }

    #[test]
    fn wire_size_is_in_table1_ballpark() {
        let t = flow_table(20_000);
        let s = DataSummary::build(&t);
        // Paper: h = 6,473 bytes for 5 histograms. Ours should be the
        // same order of magnitude.
        let size = s.wire_size();
        assert!((1_000..=20_000).contains(&size), "wire size {size}");
        assert_eq!(s.histograms().len(), 4);
    }

    #[test]
    fn bucket_budget_trades_size_for_accuracy() {
        let t = flow_table(5_000);
        let coarse = DataSummary::build_with_buckets(&t, 4);
        let fine = DataSummary::build_with_buckets(&t, 128);
        assert!(coarse.wire_size() < fine.wire_size());
        let q = Query::parse("SELECT COUNT(*) FROM Flow WHERE Bytes > 20000")
            .unwrap()
            .bind(t.schema(), 0)
            .unwrap();
        let truth = count_matching(&q, &t) as f64;
        let e_fine = (fine.estimate_rows(&q) - truth).abs();
        let e_coarse = (coarse.estimate_rows(&q) - truth).abs();
        assert!(e_fine <= e_coarse + 1.0, "fine {e_fine} coarse {e_coarse}");
    }
}
