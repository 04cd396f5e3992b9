//! Query execution and mergeable partial aggregates.
//!
//! Seaweed aggregates results *in-network* (§3.4): each aggregation-tree
//! vertex combines the partial aggregates of its children. [`Aggregate`]
//! is therefore a commutative monoid — `merge` is associative and
//! insensitive to arrival order — carrying enough state for COUNT, SUM,
//! AVG (sum + count), MIN and MAX. The row count also doubles as the
//! completeness numerator: "completeness is defined as the ratio of tuples
//! processed to the total number of tuples relevant to the query" (§1).

use std::cmp::Ordering;

use crate::error::StoreError;
use crate::sql::{BoundQuery, CmpOp, Comparison};
use crate::table::{ColumnData, Table};
use crate::value::Value;

/// Supported aggregate functions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

/// A mergeable partial aggregate.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Aggregate {
    pub func: AggFunc,
    /// Rows folded in (the completeness numerator).
    pub rows: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl Aggregate {
    /// The identity element for `func`.
    #[must_use]
    pub fn empty(func: AggFunc) -> Self {
        Aggregate {
            func,
            rows: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one value in (`0.0` for pure COUNT(*) rows).
    pub fn fold(&mut self, v: f64) {
        self.rows += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges another partial aggregate of the same function.
    ///
    /// # Panics
    /// Panics (in debug) if the functions differ.
    pub fn merge(&mut self, other: &Aggregate) {
        debug_assert_eq!(self.func, other.func, "merging different aggregates");
        self.rows += other.rows;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The final scalar answer; `None` when no rows matched (SQL NULL).
    #[must_use]
    pub fn finish(&self) -> Option<f64> {
        match self.func {
            AggFunc::Count => Some(self.rows as f64),
            AggFunc::Sum => Some(self.sum),
            AggFunc::Avg => {
                if self.rows == 0 {
                    None
                } else {
                    Some(self.sum / self.rows as f64)
                }
            }
            AggFunc::Min => (self.rows > 0).then_some(self.min),
            AggFunc::Max => (self.rows > 0).then_some(self.max),
        }
    }
}

/// Executes a bound query against a local table fragment (ignoring any
/// `GROUP BY`; see [`execute_grouped`]).
pub fn execute(query: &BoundQuery, table: &Table) -> Result<Aggregate, StoreError> {
    let src = FoldSource::of(query, table)?;
    let mut agg = Aggregate::empty(query.agg);
    scan(query, table, |base, mask| {
        for_each_row(base, mask, |r| agg.fold(src.value(r)));
    });
    Ok(agg)
}

/// Executes several bound queries against the same local table fragment,
/// per-query results in input order: the scan kernel once per query.
/// Each result is bit-identical to [`execute`] of that query, errors
/// included. (What a batch shares is the *simulated* scan cost, which the
/// protocol layer's scheduler charges; the host runs each query alone.)
pub fn execute_batch(queries: &[&BoundQuery], table: &Table) -> Vec<Result<Aggregate, StoreError>> {
    queries.iter().map(|q| execute(q, table)).collect()
}

/// Executes a `GROUP BY` aggregate against a local table fragment,
/// returning one partial aggregate per group value, sorted by group key.
///
/// Grouped queries are a *local-engine* feature: Seaweed's in-network
/// aggregation carries scalar aggregates (the paper's scope), so grouped
/// distributed queries belong in a layer above (§1.3: "functionality ...
/// could be provided in a layer above Seaweed"). [`merge_grouped`]
/// combines fragments' grouped results for such a layer.
pub fn execute_grouped(
    query: &BoundQuery,
    table: &Table,
) -> Result<Vec<(Value, Aggregate)>, StoreError> {
    let group_col = query
        .group_by
        .ok_or_else(|| StoreError::BadAggregate("execute_grouped without GROUP BY".into()))?;
    let src = match FoldSource::of(query, table) {
        Ok(src) => src,
        // A bad aggregate is an error only once a row reaches it.
        Err(e) if count_matching(query, table) > 0 => return Err(e),
        Err(_) => return Ok(Vec::new()),
    };
    let keys = table.column(group_col);
    let mut groups: Vec<(Value, Aggregate)> = Vec::new();
    scan(query, table, |base, mask| {
        for_each_row(base, mask, |r| {
            let at = match groups.iter().position(|(k, _)| cell_equals(keys, r, k)) {
                Some(at) => at,
                None => {
                    groups.push((table.get(r, group_col), Aggregate::empty(query.agg)));
                    groups.len() - 1
                }
            };
            groups[at].1.fold(src.value(r));
        });
    });
    groups.sort_by(|(a, _), (b, _)| a.key_order(b));
    Ok(groups)
}

/// Whether row `r` of `col` equals `key` by [`Value`]'s `==`, without
/// materializing the cell.
fn cell_equals(col: &ColumnData, r: usize, key: &Value) -> bool {
    match (col, key) {
        (ColumnData::Ints(v), Value::Int(k)) => v[r] == *k,
        (ColumnData::Floats(v), Value::Float(k)) => v[r] == *k,
        (ColumnData::Strs { codes, dict }, Value::Str(k)) => dict[codes[r] as usize] == *k,
        _ => false,
    }
}

/// Merges two grouped partial results (e.g. from different endsystems'
/// fragments), preserving sorted group order.
#[must_use]
pub fn merge_grouped(
    mut left: Vec<(Value, Aggregate)>,
    right: &[(Value, Aggregate)],
) -> Vec<(Value, Aggregate)> {
    for (key, agg) in right {
        match left.iter_mut().find(|(k, _)| k == key) {
            Some((_, a)) => a.merge(agg),
            None => left.push((key.clone(), *agg)),
        }
    }
    left.sort_by(|(a, _), (b, _)| a.key_order(b));
    left
}

/// Exact count of rows matching the query's predicates — used both for
/// execution and as the ground-truth row count behind completeness.
#[must_use]
pub fn count_matching(query: &BoundQuery, table: &Table) -> u64 {
    let mut n = 0;
    scan(query, table, |_, mask| n += u64::from(mask.count_ones()));
    n
}

// ------------------------------------------------------------ the kernel --
//
// Every entry point above is one call of `scan`: the `WHERE` conjunction
// is evaluated a column at a time into 64-row bit masks, and the caller
// folds the surviving rows. Masks come out in ascending block order and a
// block's rows are visited lowest bit first, so every fold sees exactly
// the row sequence a row-at-a-time walk would — the f64 sums are not
// reassociated, and results are bit-identical to that walk
// (`tests/scan_model.rs` keeps it as the reference).

/// Rows per mask.
const BLOCK: usize = 64;
/// Blocks per span: the masks of one span live on the stack (512 bytes),
/// and each predicate is resolved once per span — once per call on a
/// fragment of up to 4,096 rows.
const SPAN_BLOCKS: usize = 64;

/// Calls `on_block(base, mask)`, in ascending `base` order, for every
/// block of rows with at least one row matching all of `query`'s
/// predicates: bit `i` of `mask` is row `base + i`. Allocates nothing.
fn scan(query: &BoundQuery, table: &Table, mut on_block: impl FnMut(usize, u64)) {
    let rows = table.num_rows();
    let mut masks = [0u64; SPAN_BLOCKS];
    for span in (0..rows).step_by(BLOCK * SPAN_BLOCKS) {
        let len = (rows - span).min(BLOCK * SPAN_BLOCKS);
        let live = &mut masks[..len.div_ceil(BLOCK)];
        live.fill(u64::MAX);
        if !len.is_multiple_of(BLOCK) {
            live[len / BLOCK] = (1 << (len % BLOCK)) - 1;
        }
        for p in &query.predicates {
            narrow(table.column(p.column), p, span, live);
        }
        for (b, &mask) in live.iter().enumerate() {
            if mask != 0 {
                on_block(span + b * BLOCK, mask);
            }
        }
    }
}

/// Calls `f` on every row of a block's mask, lowest first.
fn for_each_row(base: usize, mut mask: u64, mut f: impl FnMut(usize)) {
    while mask != 0 {
        f(base + mask.trailing_zeros() as usize);
        mask &= mask - 1;
    }
}

/// Clears from `masks` (the blocks of the span starting at row `span`)
/// every row of `col` that fails `p`. The literal is resolved here, once:
/// for `Eq`/`Ne` a string literal becomes a dictionary code (a literal the
/// dictionary lacks is a code no row has); a string range compares each
/// row's dictionary entry.
fn narrow(col: &ColumnData, p: &Comparison, span: usize, masks: &mut [u64]) {
    match (col, &p.value) {
        (ColumnData::Ints(v), Value::Int(x)) => narrow_cmp(v, span, masks, p.op, *x, |a| a),
        (ColumnData::Ints(v), Value::Float(x)) => {
            narrow_cmp(v, span, masks, p.op, *x, |a| a as f64);
        }
        (ColumnData::Floats(v), Value::Int(x)) => {
            narrow_cmp(v, span, masks, p.op, *x as f64, |a| a);
        }
        (ColumnData::Floats(v), Value::Float(x)) => narrow_cmp(v, span, masks, p.op, *x, |a| a),
        (ColumnData::Strs { codes, dict }, Value::Str(s)) => match p.op {
            CmpOp::Eq | CmpOp::Ne => {
                let code = dict
                    .iter()
                    .position(|d| d == s)
                    .map_or(u32::MAX, |c| c as u32);
                narrow_cmp(codes, span, masks, p.op, code, |c| c);
            }
            op => narrow_cmp(codes, span, masks, op, s.as_str(), |c| {
                dict[c as usize].as_str()
            }),
        },
        _ => masks.fill(0), // bind() prevents incompatible comparisons
    }
}

/// [`narrow_by`] with `key(cell) op x`. An unordered pair (a NaN) passes
/// no operator, `Ne` included, as under `partial_cmp`.
fn narrow_cmp<S: Copy, T: Copy + PartialOrd>(
    col: &[S],
    span: usize,
    masks: &mut [u64],
    op: CmpOp,
    x: T,
    key: impl Fn(S) -> T,
) {
    match op {
        CmpOp::Eq => narrow_by(col, span, masks, |a| key(a) == x),
        CmpOp::Ne => narrow_by(col, span, masks, |a| {
            key(a).partial_cmp(&x).is_some_and(Ordering::is_ne)
        }),
        CmpOp::Lt => narrow_by(col, span, masks, |a| key(a) < x),
        CmpOp::Le => narrow_by(col, span, masks, |a| key(a) <= x),
        CmpOp::Gt => narrow_by(col, span, masks, |a| key(a) > x),
        CmpOp::Ge => narrow_by(col, span, masks, |a| key(a) >= x),
    }
}

/// Clears every row of `col` that fails `pass` from the non-empty masks.
fn narrow_by<S: Copy>(col: &[S], span: usize, masks: &mut [u64], pass: impl Fn(S) -> bool) {
    for (b, mask) in masks.iter_mut().enumerate() {
        if *mask == 0 {
            continue;
        }
        let lo = span + b * BLOCK;
        let block = &col[lo..col.len().min(lo + BLOCK)];
        let mut bits = 0u64;
        for (i, &a) in block.iter().enumerate() {
            bits |= u64::from(pass(a)) << i;
        }
        *mask &= bits;
    }
}

/// Where a query's folded values come from, resolved once per call.
enum FoldSource<'a> {
    /// `COUNT(*)`, or `COUNT` of a string column: every row folds `0.0`.
    Zeros,
    Ints(&'a [i64]),
    Floats(&'a [f64]),
}

impl<'a> FoldSource<'a> {
    fn of(query: &BoundQuery, table: &'a Table) -> Result<Self, StoreError> {
        Ok(match query.agg_column.map(|c| table.column(c)) {
            None => FoldSource::Zeros,
            Some(ColumnData::Ints(v)) => FoldSource::Ints(v),
            Some(ColumnData::Floats(v)) => FoldSource::Floats(v),
            Some(ColumnData::Strs { .. }) if query.agg == AggFunc::Count => FoldSource::Zeros,
            Some(ColumnData::Strs { .. }) => {
                return Err(StoreError::BadAggregate(
                    "numeric aggregate over string column".into(),
                ))
            }
        })
    }

    fn value(&self, r: usize) -> f64 {
        match self {
            FoldSource::Zeros => 0.0,
            FoldSource::Ints(v) => v[r] as f64,
            FoldSource::Floats(v) => v[r],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, Schema};
    use crate::sql::Query;
    use crate::value::DataType;

    fn flow_table() -> Table {
        let schema = Schema::new(
            "Flow",
            vec![
                ColumnDef::new("ts", DataType::Int, true),
                ColumnDef::new("SrcPort", DataType::Int, true),
                ColumnDef::new("Bytes", DataType::Int, true),
                ColumnDef::new("App", DataType::Str, true),
            ],
        );
        let mut t = Table::new(schema);
        let rows = [
            (100, 80, 5_000, "HTTP"),
            (200, 80, 25_000, "HTTP"),
            (300, 445, 40_000, "SMB"),
            (400, 443, 1_000, "HTTPS"),
            (500, 80, 15_000, "HTTP"),
            (600, 445, 30_000, "SMB"),
        ];
        for (ts, port, bytes, app) in rows {
            t.insert(vec![
                Value::Int(ts),
                Value::Int(port),
                Value::Int(bytes),
                Value::from(app),
            ])
            .unwrap();
        }
        t
    }

    fn run(sql: &str, now: i64) -> (Aggregate, Table) {
        let t = flow_table();
        let q = Query::parse(sql).unwrap().bind(t.schema(), now).unwrap();
        (execute(&q, &t).unwrap(), t)
    }

    #[test]
    fn sum_with_equality() {
        let (agg, _) = run("SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80", 0);
        assert_eq!(agg.rows, 3);
        assert_eq!(agg.finish(), Some(45_000.0));
    }

    #[test]
    fn count_star_with_range() {
        let (agg, _) = run("SELECT COUNT(*) FROM Flow WHERE Bytes > 20000", 0);
        assert_eq!(agg.finish(), Some(3.0));
    }

    #[test]
    fn avg_over_string_predicate() {
        let (agg, _) = run("SELECT AVG(Bytes) FROM Flow WHERE App='SMB'", 0);
        assert_eq!(agg.finish(), Some(35_000.0));
    }

    #[test]
    fn min_max() {
        let (mn, _) = run("SELECT MIN(Bytes) FROM Flow", 0);
        assert_eq!(mn.finish(), Some(1_000.0));
        let (mx, _) = run("SELECT MAX(Bytes) FROM Flow", 0);
        assert_eq!(mx.finish(), Some(40_000.0));
    }

    #[test]
    fn now_window() {
        // NOW() = 450: ts in [NOW()-250, NOW()] = [200, 450].
        let (agg, _) = run(
            "SELECT COUNT(*) FROM Flow WHERE ts <= NOW() AND ts >= NOW() - 250",
            450,
        );
        assert_eq!(agg.finish(), Some(3.0)); // ts 200, 300, 400
    }

    #[test]
    fn empty_result_is_null_for_avg_min_max() {
        let (avg, _) = run("SELECT AVG(Bytes) FROM Flow WHERE SrcPort=9999", 0);
        assert_eq!(avg.finish(), None);
        let (mn, _) = run("SELECT MIN(Bytes) FROM Flow WHERE SrcPort=9999", 0);
        assert_eq!(mn.finish(), None);
        let (cnt, _) = run("SELECT COUNT(*) FROM Flow WHERE SrcPort=9999", 0);
        assert_eq!(cnt.finish(), Some(0.0));
    }

    #[test]
    fn merge_is_order_insensitive_and_matches_whole() {
        let t = flow_table();
        let q = Query::parse("SELECT AVG(Bytes) FROM Flow WHERE SrcPort=80")
            .unwrap()
            .bind(t.schema(), 0)
            .unwrap();
        let whole = execute(&q, &t).unwrap();

        // Split the table into two fragments and merge partials.
        let mut frag1 = Table::new(t.schema().clone());
        let mut frag2 = Table::new(t.schema().clone());
        for r in 0..t.num_rows() {
            let row: Vec<Value> = (0..4).map(|c| t.get(r, c)).collect();
            if r % 2 == 0 {
                frag1.insert(row).unwrap();
            } else {
                frag2.insert(row).unwrap();
            }
        }
        let a1 = execute(&q, &frag1).unwrap();
        let a2 = execute(&q, &frag2).unwrap();
        let mut m12 = a1;
        m12.merge(&a2);
        let mut m21 = a2;
        m21.merge(&a1);
        assert_eq!(m12, m21);
        assert_eq!(m12.finish(), whole.finish());
        assert_eq!(m12.rows, whole.rows);
    }

    #[test]
    fn count_matching_agrees_with_execute() {
        let t = flow_table();
        let q = Query::parse("SELECT SUM(Bytes) FROM Flow WHERE Bytes >= 15000")
            .unwrap()
            .bind(t.schema(), 0)
            .unwrap();
        assert_eq!(count_matching(&q, &t), execute(&q, &t).unwrap().rows);
    }

    #[test]
    fn grouped_execution_and_merge() {
        let t = flow_table();
        let q = Query::parse("SELECT SUM(Bytes) FROM Flow GROUP BY App")
            .unwrap()
            .bind(t.schema(), 0)
            .unwrap();
        let groups = execute_grouped(&q, &t).unwrap();
        let by_key: Vec<(String, f64)> = groups
            .iter()
            .map(|(k, a)| (k.to_string(), a.finish().unwrap()))
            .collect();
        assert_eq!(
            by_key,
            vec![
                ("'HTTP'".to_string(), 45_000.0),
                ("'HTTPS'".to_string(), 1_000.0),
                ("'SMB'".to_string(), 70_000.0),
            ]
        );

        // Split into fragments; merged grouped results equal the whole.
        let mut frag1 = Table::new(t.schema().clone());
        let mut frag2 = Table::new(t.schema().clone());
        for r in 0..t.num_rows() {
            let row: Vec<Value> = (0..4).map(|c| t.get(r, c)).collect();
            if r % 2 == 0 {
                frag1.insert(row).unwrap();
            } else {
                frag2.insert(row).unwrap();
            }
        }
        let g1 = execute_grouped(&q, &frag1).unwrap();
        let g2 = execute_grouped(&q, &frag2).unwrap();
        let merged = merge_grouped(g1, &g2);
        assert_eq!(merged, groups);
    }

    #[test]
    fn grouped_count_star_and_errors() {
        let t = flow_table();
        let q = Query::parse("SELECT COUNT(*) FROM Flow WHERE Bytes >= 15000 GROUP BY SrcPort")
            .unwrap()
            .bind(t.schema(), 0)
            .unwrap();
        let groups = execute_grouped(&q, &t).unwrap();
        let total: u64 = groups.iter().map(|(_, a)| a.rows).sum();
        assert_eq!(total, count_matching(&q, &t));
        // Calling grouped execution without GROUP BY errors.
        let plain = Query::parse("SELECT COUNT(*) FROM Flow")
            .unwrap()
            .bind(t.schema(), 0)
            .unwrap();
        assert!(execute_grouped(&plain, &t).is_err());
    }

    #[test]
    fn nan_group_keys_sort_after_every_number() {
        let schema = Schema::new("T", vec![ColumnDef::new("k", DataType::Float, true)]);
        let mut t = Table::new(schema);
        // Descending keys with a NaN every third row: enough groups for
        // `sort_by` to notice an order that is not total.
        for i in 0..32 {
            let k = if i % 3 == 0 {
                f64::NAN
            } else {
                f64::from(32 - i)
            };
            t.insert(vec![Value::Float(k)]).unwrap();
        }
        let q = Query::parse("SELECT COUNT(*) FROM T GROUP BY k")
            .unwrap()
            .bind(t.schema(), 0)
            .unwrap();
        let keys = |groups: &[(Value, Aggregate)]| -> Vec<f64> {
            groups.iter().map(|(k, _)| k.as_f64().unwrap()).collect()
        };
        let groups = execute_grouped(&q, &t).unwrap();
        // `NaN != NaN`: each NaN row is a group of its own, as before.
        let numbers: Vec<f64> = (1..32).filter(|i| i % 3 != 2).map(f64::from).collect();
        let got = keys(&groups);
        assert_eq!(got[..numbers.len()], numbers[..]);
        assert_eq!(got.len(), numbers.len() + 11);
        assert!(got[numbers.len()..].iter().all(|k| k.is_nan()));
        let merged = keys(&merge_grouped(groups.clone(), &groups));
        assert_eq!(merged[..numbers.len()], numbers[..]);
        assert!(merged[numbers.len()..].iter().all(|k| k.is_nan()));
    }

    #[test]
    fn string_inequality() {
        let (agg, _) = run("SELECT COUNT(*) FROM Flow WHERE App != 'HTTP'", 0);
        assert_eq!(agg.finish(), Some(3.0));
    }

    #[test]
    fn batch_execution_is_bit_identical_to_solo() {
        let t = flow_table();
        let sqls = [
            "SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80",
            "SELECT COUNT(*) FROM Flow WHERE Bytes > 20000",
            "SELECT AVG(Bytes) FROM Flow WHERE App='SMB'",
            "SELECT MIN(Bytes) FROM Flow",
            "SELECT MAX(Bytes) FROM Flow WHERE SrcPort=9999", // matches nothing
            "SELECT COUNT(App) FROM Flow WHERE App != 'HTTP'", // string COUNT
        ];
        let bound: Vec<_> = sqls
            .iter()
            .map(|s| Query::parse(s).unwrap().bind(t.schema(), 0).unwrap())
            .collect();
        let refs: Vec<&BoundQuery> = bound.iter().collect();
        let batch = execute_batch(&refs, &t);
        for (i, (q, b)) in bound.iter().zip(&batch).enumerate() {
            let solo = execute(q, &t).unwrap();
            let b = b.as_ref().unwrap();
            assert_eq!(solo, *b, "batch diverged for {:?}", sqls[i]);
            // Bit-level f64 agreement, beyond PartialEq.
            assert_eq!(solo.sum.to_bits(), b.sum.to_bits());
            assert_eq!(solo.min.to_bits(), b.min.to_bits());
            assert_eq!(solo.max.to_bits(), b.max.to_bits());
        }
    }

    #[test]
    fn batch_isolates_per_query_errors() {
        let t = flow_table();
        let good = Query::parse("SELECT COUNT(*) FROM Flow")
            .unwrap()
            .bind(t.schema(), 0)
            .unwrap();
        // SUM over a string column fails at execution; `bind` rejects the
        // SQL form, so build the bound query directly (the execution
        // guard still has to hold for hand-built bindings).
        let bad = BoundQuery {
            agg: AggFunc::Sum,
            agg_column: Some(3), // App (string)
            predicates: Vec::new(),
            group_by: None,
        };
        let out = execute_batch(&[&good, &bad, &good], &t);
        assert_eq!(out[0].as_ref().unwrap().finish(), Some(6.0));
        assert!(out[1].is_err());
        assert_eq!(out[2].as_ref().unwrap().finish(), Some(6.0));
        // The solo path agrees that it errors.
        assert!(execute(&bad, &t).is_err());
    }

    proptest::proptest! {
        /// Shared-scan batching over random fragments and predicate mixes
        /// returns, per query, exactly the solo-execution aggregate.
        #[test]
        fn batch_matches_solo_on_random_tables(
            rows in proptest::collection::vec((0i64..1000, 0i64..4, -500i64..500), 0..64),
            ports in proptest::collection::vec(0i64..4, 1..6),
        ) {
            let schema = Schema::new(
                "T",
                vec![
                    ColumnDef::new("ts", DataType::Int, true),
                    ColumnDef::new("p", DataType::Int, true),
                    ColumnDef::new("v", DataType::Int, true),
                ],
            );
            let mut t = Table::new(schema);
            for (ts, p, v) in rows {
                t.insert(vec![Value::Int(ts), Value::Int(p), Value::Int(v)]).unwrap();
            }
            let bound: Vec<BoundQuery> = ports
                .iter()
                .map(|p| {
                    Query::parse(&format!("SELECT SUM(v) FROM T WHERE p = {p}"))
                        .unwrap()
                        .bind(t.schema(), 0)
                        .unwrap()
                })
                .collect();
            let refs: Vec<&BoundQuery> = bound.iter().collect();
            let batch = execute_batch(&refs, &t);
            for (q, b) in bound.iter().zip(&batch) {
                let solo = execute(q, &t).unwrap();
                let b = b.as_ref().unwrap();
                proptest::prop_assert_eq!(&solo, b);
                proptest::prop_assert_eq!(solo.sum.to_bits(), b.sum.to_bits());
            }
        }
    }
}
