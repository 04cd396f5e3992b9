//! The column-at-a-time scan kernel against a row-at-a-time reference.
//!
//! `reference` below is the evaluator `exec` used before the kernel: it
//! reads every cell through `Table::get` and tests each predicate on each
//! row with `partial_cmp`/`cmp`, folding matches in ascending row order.
//! The kernel must agree with it on random fragments bit for bit —
//! `Aggregate` fields by `to_bits`, errors, row counts and groups — across
//! the block and span edges (0, 1, 63, 64, 65, ~1,000 and ~4,096 rows),
//! `i64::MIN`/`MAX`, −0.0, NaN and ±∞, every `CmpOp`, Int/Float literal
//! mixes, and string literals the dictionary lacks. A dictionary entry no
//! row uses cannot be built through `Table` (the dictionary grows only
//! with the row that stores the code); to the kernel it would be one more
//! code no row has, which is what an absent literal resolves to.

use proptest::prelude::*;
use proptest::TestRng;
use seaweed_store::exec::{count_matching, execute, execute_batch, execute_grouped};
use seaweed_store::{
    AggFunc, Aggregate, BoundQuery, CmpOp, ColumnDef, Comparison, DataType, Schema, StoreError,
    Table, Value,
};

mod reference {
    use super::*;

    fn matches(q: &BoundQuery, t: &Table, r: usize) -> bool {
        q.predicates
            .iter()
            .all(|p| match (t.get(r, p.column), &p.value) {
                (Value::Int(a), Value::Int(x)) => p.op.eval(a.cmp(x)),
                (Value::Int(a), Value::Float(x)) => {
                    (a as f64).partial_cmp(x).is_some_and(|o| p.op.eval(o))
                }
                (Value::Float(a), Value::Int(x)) => {
                    a.partial_cmp(&(*x as f64)).is_some_and(|o| p.op.eval(o))
                }
                (Value::Float(a), Value::Float(x)) => {
                    a.partial_cmp(x).is_some_and(|o| p.op.eval(o))
                }
                (Value::Str(a), Value::Str(x)) => p.op.eval(a.as_str().cmp(x.as_str())),
                _ => false,
            })
    }

    fn bad() -> StoreError {
        StoreError::BadAggregate("numeric aggregate over string column".into())
    }

    /// The value row `r` folds, or the error a string column raises.
    fn value(q: &BoundQuery, t: &Table, r: usize) -> Result<f64, StoreError> {
        match q.agg_column.map(|c| t.get(r, c)) {
            None => Ok(0.0),
            Some(Value::Int(i)) => Ok(i as f64),
            Some(Value::Float(f)) => Ok(f),
            Some(Value::Str(_)) if q.agg == AggFunc::Count => Ok(0.0),
            Some(Value::Str(_)) => Err(bad()),
        }
    }

    pub fn execute(q: &BoundQuery, t: &Table) -> Result<Aggregate, StoreError> {
        if let Some(c) = q.agg_column {
            if t.schema().column(c).dtype == DataType::Str && q.agg != AggFunc::Count {
                return Err(bad());
            }
        }
        let mut agg = Aggregate::empty(q.agg);
        for r in 0..t.num_rows() {
            if matches(q, t, r) {
                agg.fold(value(q, t, r)?);
            }
        }
        Ok(agg)
    }

    pub fn count(q: &BoundQuery, t: &Table) -> u64 {
        (0..t.num_rows()).filter(|&r| matches(q, t, r)).count() as u64
    }

    pub fn grouped(q: &BoundQuery, t: &Table) -> Result<Vec<(Value, Aggregate)>, StoreError> {
        let group_col = q
            .group_by
            .ok_or_else(|| StoreError::BadAggregate("execute_grouped without GROUP BY".into()))?;
        let mut groups: Vec<(Value, Aggregate)> = Vec::new();
        for r in 0..t.num_rows() {
            if !matches(q, t, r) {
                continue;
            }
            let key = t.get(r, group_col);
            let v = value(q, t, r)?;
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, a)) => a.fold(v),
                None => {
                    let mut a = Aggregate::empty(q.agg);
                    a.fold(v);
                    groups.push((key, a));
                }
            }
        }
        groups.sort_by(|(a, _), (b, _)| a.key_order(b));
        Ok(groups)
    }
}

/// Columns: `i` Int, `f` Float, `s` Str, `k` Int with four values (a
/// group key with repeats).
fn schema() -> Schema {
    Schema::new(
        "T",
        vec![
            ColumnDef::new("i", DataType::Int, true),
            ColumnDef::new("f", DataType::Float, true),
            ColumnDef::new("s", DataType::Str, true),
            ColumnDef::new("k", DataType::Int, true),
        ],
    )
}

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];
const FUNCS: [AggFunc; 5] = [
    AggFunc::Count,
    AggFunc::Sum,
    AggFunc::Avg,
    AggFunc::Min,
    AggFunc::Max,
];
/// The strings a fragment's `s` column draws from.
const POOL: [&str; 6] = ["", "HTTP", "HTTPS", "SMB", "a", "b"];
/// Literals no fragment's dictionary holds, ordered before, between and
/// after its entries.
const ABSENT: [&str; 4] = ["zzz", "A", "HTTPX", "w"];
/// Row counts on both sides of a 64-row block and a 4,096-row span.
const SIZES: [(usize, usize); 7] = [
    (0, 1),
    (1, 2),
    (63, 64),
    (64, 65),
    (65, 66),
    (900, 1100),
    (4090, 4170),
];

fn below(rng: &mut TestRng, n: usize) -> usize {
    (0..n).generate(rng)
}

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[below(rng, items.len())]
}

fn int_value(rng: &mut TestRng) -> i64 {
    match below(rng, 6) {
        0 => pick(rng, &[i64::MIN, i64::MAX, 0]),
        1 => (-4i64..4).generate(rng),
        2 => any::<i64>().generate(rng),
        _ => (-1_000_000i64..1_000_000).generate(rng),
    }
}

fn float_value(rng: &mut TestRng) -> f64 {
    match below(rng, 6) {
        0 => pick(
            rng,
            &[-0.0, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY],
        ),
        1 => (-4i64..4).generate(rng) as f64,
        2 => (-1e18f64..1e18).generate(rng),
        _ => (-1e6f64..1e6).generate(rng),
    }
}

/// One random fragment and a batch of 1–7 queries over it, each with 0–4
/// conjuncts. Literals are drawn from the special values above, from the
/// table's own rows (as stored, or as the other numeric type), from the
/// string pool and from [`ABSENT`]; one in nine is of the wrong type for
/// its column, which `bind` refuses and the kernel must match nothing on.
#[derive(Debug)]
struct Case {
    table: Table,
    queries: Vec<BoundQuery>,
}

struct Cases;

impl Strategy for Cases {
    type Value = Case;

    fn generate(&self, rng: &mut TestRng) -> Case {
        let (lo, hi) = pick(rng, &SIZES);
        let rows = (lo..hi).generate(rng);
        let mut table = Table::new(schema());
        for _ in 0..rows {
            let row = vec![
                Value::Int(int_value(rng)),
                Value::Float(float_value(rng)),
                Value::from(pick(rng, &POOL)),
                Value::Int((0i64..4).generate(rng)),
            ];
            table.insert(row).expect("row matches schema");
        }
        let literals: Vec<&str> = POOL.iter().copied().chain(ABSENT).collect();
        let queries = (0..(1usize..8).generate(rng))
            .map(|_| BoundQuery {
                agg: pick(rng, &FUNCS),
                agg_column: pick(rng, &[None, Some(0), Some(1), Some(2), Some(3)]),
                predicates: (0..below(rng, 5))
                    .map(|_| {
                        let column = below(rng, 4);
                        let value = match (column, below(rng, 9)) {
                            (2, 0) => Value::Int(int_value(rng)),
                            (2, _) => Value::from(pick(rng, &literals)),
                            (_, 0) => Value::from("HTTP"),
                            (_, 1 | 2) => Value::Int(int_value(rng)),
                            (_, 3 | 4) => Value::Float(float_value(rng)),
                            (_, _) if rows == 0 => Value::Int(int_value(rng)),
                            (_, k) => match (table.get(below(rng, rows), column), k % 2) {
                                (Value::Int(i), 0) => Value::Float(i as f64),
                                (Value::Float(f), 0) => Value::Int(f as i64),
                                (v, _) => v,
                            },
                        };
                        Comparison {
                            column,
                            op: pick(rng, &OPS),
                            value,
                        }
                    })
                    .collect(),
                group_by: pick(rng, &[None, Some(0), Some(1), Some(2), Some(3)]),
            })
            .collect();
        Case { table, queries }
    }
}

/// An aggregate's fields with every f64 as its bits.
type Bits = (AggFunc, u64, u64, u64, u64);

fn bits(a: &Aggregate) -> Bits {
    (
        a.func,
        a.rows,
        a.sum.to_bits(),
        a.min.to_bits(),
        a.max.to_bits(),
    )
}

fn agg_bits(r: &Result<Aggregate, StoreError>) -> Result<Bits, StoreError> {
    r.as_ref().map(bits).map_err(Clone::clone)
}

/// A group key by bits, so that −0.0, 0.0 and NaN keys compare exactly.
fn key_bits(v: &Value) -> String {
    match v {
        Value::Float(f) => format!("f{:016x}", f.to_bits()),
        other => format!("{other:?}"),
    }
}

fn grouped_bits(
    r: &Result<Vec<(Value, Aggregate)>, StoreError>,
) -> Result<Vec<(String, Bits)>, StoreError> {
    r.as_ref()
        .map(|g| g.iter().map(|(k, a)| (key_bits(k), bits(a))).collect())
        .map_err(Clone::clone)
}

proptest! {
    /// `execute`, `count_matching`, `execute_grouped` and `execute_batch`
    /// agree with the row-at-a-time reference on every query, to the bit.
    #[test]
    fn kernel_matches_row_at_a_time_reference(case in Cases) {
        let t = &case.table;
        let solo: Vec<_> = case.queries.iter().map(|q| execute(q, t)).collect();
        for (q, got) in case.queries.iter().zip(&solo) {
            prop_assert_eq!(agg_bits(got), agg_bits(&reference::execute(q, t)), "execute {:?}", q);
            prop_assert_eq!(count_matching(q, t), reference::count(q, t), "count {:?}", q);
            prop_assert_eq!(
                grouped_bits(&execute_grouped(q, t)),
                grouped_bits(&reference::grouped(q, t)),
                "grouped {:?}", q
            );
        }
        let refs: Vec<&BoundQuery> = case.queries.iter().collect();
        let batch = execute_batch(&refs, t);
        prop_assert_eq!(batch.len(), solo.len());
        for (b, s) in batch.iter().zip(&solo) {
            prop_assert_eq!(agg_bits(b), agg_bits(s));
        }
    }
}
