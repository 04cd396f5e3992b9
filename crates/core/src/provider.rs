//! Data-plane access for the protocol layer.
//!
//! The paper's simulations pre-computed per-endsystem query results and
//! histograms (§4.3) rather than running a DBMS inside the simulator; we
//! support both modes behind one trait:
//!
//! * [`LiveTables`] holds real [`Table`] fragments and answers arbitrary
//!   queries — examples and small simulations use this.
//! * [`Precomputed`] stores per-(endsystem, query) aggregates and row
//!   estimates for a fixed query set — large-scale experiments stream
//!   generated fragments through a summarization pass and drop them.

use seaweed_store::exec::{count_matching, execute};
use seaweed_store::{Aggregate, BoundQuery, DataSummary, Query, Schema, StoreError, Table};

/// Data-plane interface the Seaweed protocol layer needs from each
/// endsystem.
pub trait DataProvider {
    /// Serialized size in bytes of the endsystem's data summary — the
    /// `h` of Table 1, charged on every metadata push.
    fn summary_wire_size(&self, node: usize) -> u32;

    /// Histogram-based estimate of rows relevant to `query` on `node` —
    /// what a metadata replica computes on an unavailable endsystem's
    /// behalf, and what an available endsystem quotes for its own
    /// predictor.
    fn estimate_rows(&self, node: usize, query: &BoundQuery) -> f64;

    /// Executes `query` on `node`'s fragment, returning the exact partial
    /// aggregate. Fails if the provider cannot answer the query (e.g. a
    /// pre-computed provider asked about an unregistered query); the
    /// protocol layer treats that as a missing contribution, not a
    /// crash.
    fn execute(&self, node: usize, query: &BoundQuery) -> Result<Aggregate, StoreError>;

    /// Exact relevant-row count (ground truth for experiments).
    fn exact_rows(&self, node: usize, query: &BoundQuery) -> u64;

    /// Rows a full table pass on `node` touches — the unit the storm
    /// scheduler charges per query regardless of selectivity, since a
    /// scan reads every row to test the predicate. Providers without a
    /// physical fragment report 1 (scans are free-but-ordered).
    fn scan_cost(&self, node: usize) -> u64 {
        let _ = node;
        1
    }

    /// Executes several queries against `node`'s fragment, per-query
    /// results in input order, each bit-identical to
    /// [`DataProvider::execute`]. The default just loops.
    fn execute_many(
        &self,
        node: usize,
        queries: &[&BoundQuery],
    ) -> Vec<Result<Aggregate, StoreError>> {
        queries.iter().map(|q| self.execute(node, q)).collect()
    }
}

/// Real tables per endsystem.
#[derive(Debug)]
pub struct LiveTables {
    schema: Schema,
    tables: Vec<Table>,
    summaries: Vec<DataSummary>,
    /// Per-endsystem summary wire sizes, refreshed alongside the
    /// summaries: [`DataProvider::summary_wire_size`] is charged on every
    /// metadata push, so it must not re-walk histograms each time.
    summary_sizes: Vec<u32>,
}

impl LiveTables {
    /// Builds from per-endsystem fragments (summaries are derived here).
    ///
    /// # Panics
    /// Panics if fragments disagree on schema.
    #[must_use]
    pub fn new(tables: Vec<Table>) -> Self {
        assert!(!tables.is_empty(), "need at least one fragment");
        let schema = tables[0].schema().clone();
        for t in &tables {
            assert_eq!(*t.schema(), schema, "fragments must share a schema");
        }
        let summaries: Vec<DataSummary> = tables.iter().map(DataSummary::build).collect();
        let summary_sizes = summaries.iter().map(DataSummary::wire_size).collect();
        LiveTables {
            schema,
            tables,
            summaries,
            summary_sizes,
        }
    }

    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    #[must_use]
    pub fn table(&self, node: usize) -> &Table {
        &self.tables[node]
    }

    /// Mutable access to one endsystem's fragment — the paper's "frequent
    /// local updates" path (updates are single-endsystem by design, §1.3).
    /// Call [`LiveTables::refresh_summary`] afterwards so the next
    /// metadata push carries current histograms.
    pub fn table_mut(&mut self, node: usize) -> &mut Table {
        &mut self.tables[node]
    }

    /// Rebuilds the endsystem's data summary from its current fragment
    /// (what a real endsystem does before each metadata push when data
    /// changed, §3.2.2).
    pub fn refresh_summary(&mut self, node: usize) {
        self.summaries[node] = DataSummary::build(&self.tables[node]);
        self.summary_sizes[node] = self.summaries[node].wire_size();
    }

    /// Parses and binds a query against this application's schema.
    pub fn bind(&self, sql: &str, now_secs: i64) -> Result<(Query, BoundQuery), StoreError> {
        let q = Query::parse(sql)?;
        let b = q.bind(&self.schema, now_secs)?;
        Ok((q, b))
    }
}

impl DataProvider for LiveTables {
    fn summary_wire_size(&self, node: usize) -> u32 {
        self.summary_sizes[node]
    }

    fn estimate_rows(&self, node: usize, query: &BoundQuery) -> f64 {
        self.summaries[node].estimate_rows(query)
    }

    fn execute(&self, node: usize, query: &BoundQuery) -> Result<Aggregate, StoreError> {
        execute(query, &self.tables[node])
    }

    fn exact_rows(&self, node: usize, query: &BoundQuery) -> u64 {
        count_matching(query, &self.tables[node])
    }

    fn scan_cost(&self, node: usize) -> u64 {
        self.tables[node].num_rows() as u64
    }

    fn execute_many(
        &self,
        node: usize,
        queries: &[&BoundQuery],
    ) -> Vec<Result<Aggregate, StoreError>> {
        seaweed_store::exec::execute_batch(queries, &self.tables[node])
    }
}

/// Pre-computed per-(endsystem, query) answers for a fixed query set,
/// keyed by the bound query's shape. Mirrors the paper's own simulator
/// optimization: "We pre-computed the results of each query as well as
/// the histograms on all endsystem data."
#[derive(Debug)]
pub struct Precomputed {
    /// Summary sizes per endsystem.
    summary_sizes: Vec<u32>,
    /// Per registered query, in registration order: one [`Answer`] per
    /// endsystem. Found by [`BoundQuery`] equality — a scan over the few
    /// dozen registered shapes that allocates nothing, on a path every
    /// predictor report and local execution takes.
    answers: Vec<(BoundQuery, Vec<Answer>)>,
}

/// One endsystem's (estimate, aggregate, exact row count) for one query.
type Answer = (f64, Aggregate, u64);

impl Precomputed {
    #[must_use]
    pub fn new(num_nodes: usize) -> Self {
        Precomputed {
            summary_sizes: vec![0; num_nodes],
            answers: Vec::new(),
        }
    }

    /// Registers one endsystem's answers, typically streamed from a
    /// just-generated fragment that is dropped afterwards.
    pub fn record(
        &mut self,
        node: usize,
        summary_size: u32,
        answers: impl IntoIterator<Item = (BoundQuery, f64, Aggregate, u64)>,
    ) {
        self.summary_sizes[node] = summary_size;
        for (q, est, agg, exact) in answers {
            let at = match self.answers.iter().position(|(known, _)| *known == q) {
                Some(at) => at,
                None => {
                    let blank = (0.0, Aggregate::empty(q.agg), 0);
                    self.answers
                        .push((q, vec![blank; self.summary_sizes.len()]));
                    self.answers.len() - 1
                }
            };
            self.answers[at].1[node] = (est, agg, exact);
        }
    }

    /// Convenience: summarize + answer a fragment for a set of queries,
    /// then drop it. Fails if a query cannot execute against the
    /// fragment (nothing is recorded for this node in that case).
    pub fn record_fragment(
        &mut self,
        node: usize,
        table: &Table,
        queries: &[BoundQuery],
    ) -> Result<(), StoreError> {
        let summary = DataSummary::build(table);
        let answers: Vec<_> = queries
            .iter()
            .map(|q| {
                Ok((
                    q.clone(),
                    summary.estimate_rows(q),
                    execute(q, table)?,
                    count_matching(q, table),
                ))
            })
            .collect::<Result<_, StoreError>>()?;
        self.record(node, summary.wire_size(), answers);
        Ok(())
    }

    fn lookup(&self, node: usize, query: &BoundQuery) -> Result<&Answer, StoreError> {
        self.answers
            .iter()
            .find(|(known, _)| known == query)
            .ok_or_else(|| StoreError::UnknownQuery(format!("{query:?}")))?
            .1
            .get(node)
            .ok_or_else(|| StoreError::UnknownQuery(format!("node {node} out of range")))
    }
}

impl DataProvider for Precomputed {
    fn summary_wire_size(&self, node: usize) -> u32 {
        self.summary_sizes[node]
    }

    fn estimate_rows(&self, node: usize, query: &BoundQuery) -> f64 {
        // Estimation has no error channel (it feeds predictors that must
        // always produce a number); an unregistered query here is a
        // harness bug.
        self.lookup(node, query).unwrap_or_else(|e| panic!("{e}")).0
    }

    fn execute(&self, node: usize, query: &BoundQuery) -> Result<Aggregate, StoreError> {
        Ok(self.lookup(node, query)?.1)
    }

    fn exact_rows(&self, node: usize, query: &BoundQuery) -> u64 {
        self.lookup(node, query).unwrap_or_else(|e| panic!("{e}")).2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seaweed_store::{ColumnDef, DataType, Value};

    fn tiny_tables(n: usize) -> Vec<Table> {
        let schema = Schema::new(
            "T",
            vec![
                ColumnDef::new("a", DataType::Int, true),
                ColumnDef::new("v", DataType::Int, true),
            ],
        );
        (0..n)
            .map(|node| {
                let mut t = Table::new(schema.clone());
                for i in 0..50 {
                    t.insert(vec![
                        Value::Int((i % 5) as i64),
                        Value::Int((node * 100 + i) as i64),
                    ])
                    .unwrap();
                }
                t
            })
            .collect()
    }

    #[test]
    fn live_tables_answer_queries() {
        let lt = LiveTables::new(tiny_tables(3));
        let (_, b) = lt.bind("SELECT COUNT(*) FROM T WHERE a = 2", 0).unwrap();
        assert_eq!(lt.exact_rows(1, &b), 10);
        assert_eq!(lt.execute(1, &b).unwrap().finish(), Some(10.0));
        let est = lt.estimate_rows(1, &b);
        assert!((est - 10.0).abs() < 2.0, "estimate {est}");
        assert!(lt.summary_wire_size(0) > 0);
    }

    #[test]
    fn precomputed_round_trips_live_answers() {
        let lt = LiveTables::new(tiny_tables(4));
        let (_, b) = lt.bind("SELECT SUM(v) FROM T WHERE a >= 3", 0).unwrap();
        let mut pc = Precomputed::new(4);
        for node in 0..4 {
            pc.record_fragment(node, lt.table(node), std::slice::from_ref(&b))
                .unwrap();
        }
        for node in 0..4 {
            assert_eq!(pc.exact_rows(node, &b), lt.exact_rows(node, &b));
            assert_eq!(
                pc.execute(node, &b).unwrap().finish(),
                lt.execute(node, &b).unwrap().finish()
            );
            assert!((pc.estimate_rows(node, &b) - lt.estimate_rows(node, &b)).abs() < 1e-9);
            assert_eq!(pc.summary_wire_size(node), lt.summary_wire_size(node));
        }
    }

    #[test]
    #[should_panic(expected = "not pre-registered")]
    fn precomputed_rejects_unknown_queries() {
        let lt = LiveTables::new(tiny_tables(1));
        let (_, b) = lt.bind("SELECT COUNT(*) FROM T WHERE a = 0", 0).unwrap();
        let pc = Precomputed::new(1);
        let _ = pc.estimate_rows(0, &b);
    }

    #[test]
    fn precomputed_execute_errors_on_unknown_queries() {
        let lt = LiveTables::new(tiny_tables(1));
        let (_, b) = lt.bind("SELECT COUNT(*) FROM T WHERE a = 0", 0).unwrap();
        let pc = Precomputed::new(1);
        // Unlike estimation, execution has an error channel: the protocol
        // layer drops the contribution instead of crashing the run.
        assert!(matches!(
            pc.execute(0, &b),
            Err(StoreError::UnknownQuery(_))
        ));
    }
}
