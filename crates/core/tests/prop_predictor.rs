//! Property-based tests for completeness predictors and the vertex
//! parent function.

use proptest::prelude::*;
use seaweed_availability::ReturnPrediction;
use seaweed_core::predictor::Predictor;
use seaweed_core::vertex::{chain_to_root, parent_vertex, suffix_len};
use seaweed_types::{Duration, Id, LogBuckets};

/// Delay buckets in every predictor.
const BUCKETS: usize = 50;

/// The reference model: a predictor holding all fifty delay buckets
/// inline, every operation written out in full. [`Predictor`] stores only
/// the buckets it has touched and must match this bit for bit.
#[derive(Clone)]
struct Dense {
    now_rows: f64,
    later: [f64; BUCKETS],
    endsystems: u64,
    scheme: LogBuckets,
}

impl Dense {
    fn new() -> Self {
        Dense {
            now_rows: 0.0,
            later: [0.0; BUCKETS],
            endsystems: 0,
            scheme: LogBuckets::standard(),
        }
    }

    fn add_available(&mut self, rows: f64) {
        self.now_rows += rows.max(0.0);
        self.endsystems += 1;
    }

    fn add_available_delayed(&mut self, rows: f64, delay: Duration) {
        if delay == Duration::ZERO {
            self.add_available(rows);
            return;
        }
        self.later[self.scheme.index(delay)] += rows.max(0.0);
        self.endsystems += 1;
    }

    fn add_unavailable(&mut self, rows: f64, pred: &ReturnPrediction) {
        let rows = rows.max(0.0);
        for &(delay, weight) in &pred.mass {
            self.later[self.scheme.index(delay)] += rows * weight;
        }
        self.endsystems += 1;
    }

    fn merge(&mut self, other: &Dense) {
        self.now_rows += other.now_rows;
        for (a, b) in self.later.iter_mut().zip(&other.later) {
            *a += b;
        }
        self.endsystems += other.endsystems;
    }

    fn expected_rows_within(&self, delay: Duration) -> f64 {
        let cut = self.scheme.index(delay);
        let mut total = self.now_rows;
        for (i, &rows) in self.later.iter().enumerate() {
            if i < cut || (i == cut && self.scheme.midpoint(i) <= delay) {
                total += rows;
            }
        }
        total
    }

    fn total_rows(&self) -> f64 {
        self.now_rows + self.later.iter().sum::<f64>()
    }

    fn delay_for_completeness(&self, target: f64) -> Option<Duration> {
        let total = self.total_rows();
        if total <= 0.0 {
            return Some(Duration::ZERO);
        }
        let want = target.clamp(0.0, 1.0) * total;
        let mut acc = self.now_rows;
        if acc >= want {
            return Some(Duration::ZERO);
        }
        for (i, &rows) in self.later.iter().enumerate() {
            acc += rows;
            if acc >= want {
                return Some(self.scheme.midpoint(i));
            }
        }
        None
    }

    fn curve(&self) -> Vec<(Duration, f64)> {
        let mut out = vec![(Duration::ZERO, self.now_rows)];
        let mut acc = self.now_rows;
        for (i, &rows) in self.later.iter().enumerate() {
            acc += rows;
            out.push((self.scheme.midpoint(i), acc));
        }
        out
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&0x5EA3_EDCFu32.to_le_bytes());
        out.extend_from_slice(&(BUCKETS as u32).to_le_bytes());
        out.extend_from_slice(&self.endsystems.to_le_bytes());
        out.extend_from_slice(&(self.now_rows as f32).to_le_bytes());
        for &v in &self.later {
            out.extend_from_slice(&(v as f32).to_le_bytes());
        }
        out
    }
}

/// One step on predictor `0` or `1` of a pair.
#[derive(Clone, Debug)]
enum Op {
    Available(usize, f64),
    Delayed(usize, f64, Duration),
    Unavailable(usize, f64, Vec<(Duration, f64)>),
    /// Merge the other predictor of the pair into this one.
    Merge(usize),
}

/// Delays from zero past the fourteen-day horizon, log-spread so that
/// every bucket, the underflow and the overflow are all reached.
fn delay() -> impl Strategy<Value = Duration> {
    (0u32..=42, any::<u64>())
        .prop_map(|(bits, x)| Duration::from_micros(if bits == 0 { 0 } else { x >> (64 - bits) }))
}

fn op() -> impl Strategy<Value = Op> {
    let rows = -10.0f64..1e6;
    prop_oneof![
        (0usize..2, rows.clone()).prop_map(|(p, r)| Op::Available(p, r)),
        (0usize..2, rows.clone(), delay()).prop_map(|(p, r, d)| Op::Delayed(p, r, d)),
        (
            0usize..2,
            rows,
            prop::collection::vec((delay(), 0.0f64..1.0), 1..6)
        )
            .prop_map(|(p, r, mass)| Op::Unavailable(p, r, mass)),
        (0usize..2).prop_map(Op::Merge),
    ]
}

/// Runs `ops` on a sparse pair and a dense pair side by side.
fn run(ops: &[Op]) -> ([Predictor; 2], [Dense; 2]) {
    let mut sparse = [Predictor::new(), Predictor::new()];
    let mut dense = [Dense::new(), Dense::new()];
    for op in ops {
        match op {
            Op::Available(p, rows) => {
                sparse[*p].add_available(*rows);
                dense[*p].add_available(*rows);
            }
            Op::Delayed(p, rows, delay) => {
                sparse[*p].add_available_delayed(*rows, *delay);
                dense[*p].add_available_delayed(*rows, *delay);
            }
            Op::Unavailable(p, rows, mass) => {
                let pred = ReturnPrediction { mass: mass.clone() };
                sparse[*p].add_unavailable(*rows, &pred);
                dense[*p].add_unavailable(*rows, &pred);
            }
            Op::Merge(p) => {
                let other = sparse[1 - *p].clone();
                sparse[*p].merge(&other);
                let other = dense[1 - *p].clone();
                dense[*p].merge(&other);
            }
        }
    }
    (sparse, dense)
}

/// Every observation of `sparse` equals the reference's, to the bit.
fn assert_matches(sparse: &Predictor, dense: &Dense) -> Result<(), TestCaseError> {
    prop_assert_eq!(sparse.immediate_rows().to_bits(), dense.now_rows.to_bits());
    for (i, &v) in dense.later.iter().enumerate() {
        prop_assert_eq!(sparse.bucket(i).to_bits(), v.to_bits(), "bucket {}", i);
    }
    prop_assert_eq!(sparse.endsystems(), dense.endsystems);
    prop_assert_eq!(sparse.total_rows().to_bits(), dense.total_rows().to_bits());

    let (got, want) = (sparse.curve(), dense.curve());
    prop_assert_eq!(got.len(), BUCKETS + 1);
    for ((gd, gv), (wd, wv)) in got.iter().zip(&want) {
        prop_assert_eq!(gd, wd);
        prop_assert_eq!(gv.to_bits(), wv.to_bits());
    }

    let scheme = &dense.scheme;
    let total = dense.total_rows();
    for i in 0..BUCKETS {
        let mut probes = vec![scheme.lower_edge(i), scheme.midpoint(i)];
        if i + 1 < BUCKETS {
            probes.push(scheme.upper_edge(i));
        }
        for d in probes {
            let want = dense.expected_rows_within(d);
            prop_assert_eq!(
                sparse.expected_rows_within(d).to_bits(),
                want.to_bits(),
                "at {}",
                d
            );
            // Targets: the completeness the reference reaches at this
            // delay, one ulp either side of it, and a few fixed ones.
            let at = want / total;
            for target in [at, at.next_down(), at.next_up(), 0.0, 0.5, 0.9, 0.99, 1.0] {
                prop_assert_eq!(
                    sparse.delay_for_completeness(target),
                    dense.delay_for_completeness(target),
                    "target {}",
                    target
                );
            }
        }
    }
    prop_assert_eq!(sparse.encode(), dense.encode());
    Ok(())
}

/// A predictor whose every bucket survives the wire's `f32`s exactly:
/// integral row counts, summed well below 2^24.
fn wire_exact() -> impl Strategy<Value = Predictor> {
    prop::collection::vec((0u32..1000, any::<bool>(), delay()), 0..40).prop_map(|adds| {
        let mut p = Predictor::new();
        for (rows, now, delay) in adds {
            if now {
                p.add_available(f64::from(rows));
            } else {
                p.add_available_delayed(f64::from(rows), delay);
            }
        }
        p
    })
}

fn predictions() -> impl Strategy<Value = Vec<(f64, u64)>> {
    // (rows, delay seconds) pairs for unavailable endsystems.
    prop::collection::vec((0.0f64..1e6, 1u64..1_000_000), 0..40)
}

fn build(avail: &[f64], unavail: &[(f64, u64)]) -> Predictor {
    let mut p = Predictor::new();
    for &rows in avail {
        p.add_available(rows);
    }
    for &(rows, delay) in unavail {
        p.add_unavailable(rows, &ReturnPrediction::point(Duration::from_secs(delay)));
    }
    p
}

proptest! {
    /// A predictor that stores only the buckets it has touched is the
    /// dense fifty-bucket predictor, bit for bit, under any sequence of
    /// folds and two-way merges.
    #[test]
    fn sparse_matches_dense_reference(ops in prop::collection::vec(op(), 0..40)) {
        let (sparse, dense) = run(&ops);
        for (s, d) in sparse.iter().zip(&dense) {
            assert_matches(s, d)?;
        }
    }

    /// `decode` never panics, whatever the bytes: raw, behind a valid
    /// magic and bucket count so that the body is read, or as a body of
    /// exactly the right length, which always decodes.
    #[test]
    fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300), frame in 0u8..3) {
        let mut input = Vec::new();
        if frame > 0 {
            input.extend_from_slice(&Predictor::new().encode()[..8]);
        }
        input.extend_from_slice(&bytes);
        if frame == 2 {
            input.resize(Predictor::new().wire_size() as usize, 0);
        }
        let decoded = Predictor::decode(&input);
        if frame == 2 {
            let p = decoded.expect("a well-formed encoding decodes");
            prop_assert_eq!(p.endsystems().to_le_bytes(), input[8..16]);
        }
    }

    /// `decode` inverts `encode`, for predictors that store few buckets
    /// as well as many.
    #[test]
    fn decode_inverts_encode(p in wire_exact()) {
        let bytes = p.encode();
        prop_assert_eq!(bytes.len(), p.wire_size() as usize);
        prop_assert_eq!(Predictor::decode(&bytes), Some(p));
    }

    /// A well-formed encoding over any bucket count but fifty is refused.
    #[test]
    fn decode_refuses_other_bucket_counts(p in wire_exact(), count in 0u32..200) {
        prop_assume!(count as usize != BUCKETS);
        let bytes = p.encode();
        let mut other = bytes[..16].to_vec();
        other[4..8].copy_from_slice(&count.to_le_bytes());
        for i in 0..=count as usize {
            let at = 16 + 4 * i.min(BUCKETS);
            other.extend_from_slice(&bytes[at..at + 4]);
        }
        prop_assert_eq!(other.len(), 16 + 4 * (count as usize + 1));
        prop_assert!(Predictor::decode(&other).is_none());
        // The bucket count alone changed, the length kept.
        let mut relabelled = bytes;
        relabelled[4..8].copy_from_slice(&count.to_le_bytes());
        prop_assert!(Predictor::decode(&relabelled).is_none());
    }

    /// Total rows equals the sum of all contributions; immediate rows
    /// equal the available ones; the curve is monotone and bounded.
    #[test]
    fn predictor_accounting(
        avail in prop::collection::vec(0.0f64..1e6, 0..40),
        unavail in predictions(),
    ) {
        let p = build(&avail, &unavail);
        let expect_avail: f64 = avail.iter().sum();
        let expect_total: f64 = expect_avail + unavail.iter().map(|(r, _)| r).sum::<f64>();
        prop_assert!((p.immediate_rows() - expect_avail).abs() < 1e-6 * expect_avail.max(1.0));
        prop_assert!((p.total_rows() - expect_total).abs() < 1e-6 * expect_total.max(1.0));
        prop_assert_eq!(p.endsystems(), (avail.len() + unavail.len()) as u64);

        let mut last = -1.0;
        for d in [0u64, 1, 60, 3600, 86_400, 14 * 86_400, 100 * 86_400] {
            let c = p.completeness_at(Duration::from_secs(d));
            prop_assert!((0.0..=1.0 + 1e-9).contains(&c));
            prop_assert!(c + 1e-9 >= last, "completeness regressed at {d}s");
            last = c;
        }
        // Everything has arrived after the bucket horizon.
        prop_assert!(p.completeness_at(Duration::from_days(60)) > 1.0 - 1e-9);
    }

    /// Merging in any grouping/order produces the same predictor.
    #[test]
    fn merge_order_insensitive(
        a in prop::collection::vec(0.0f64..1e5, 0..10),
        b in predictions(),
        c in predictions(),
    ) {
        let pa = build(&a, &[]);
        let pb = build(&[], &b);
        let pc = build(&[], &c);
        let mut left = pa.clone();
        left.merge(&pb);
        left.merge(&pc);
        let mut right = pc.clone();
        right.merge(&pa);
        right.merge(&pb);
        prop_assert_eq!(left, right);
    }

    /// delay_for_completeness is the inverse of completeness_at.
    #[test]
    fn delay_inverts_completeness(unavail in predictions(), target in 0.0f64..1.0) {
        let p = build(&[1.0], &unavail);
        if let Some(d) = p.delay_for_completeness(target) {
            // At the returned delay (bucket midpoint), the requested
            // completeness is reached.
            prop_assert!(p.completeness_at(d) + 1e-9 >= target);
        }
    }

    /// The parent function converges to the query id from any start, in
    /// at most num_digits steps, with strictly growing shared suffix —
    /// for every digit width.
    #[test]
    fn vertex_chain_properties(
        q in any::<u128>(),
        start in any::<u128>(),
        b in prop::sample::select(vec![1u8, 2, 4, 8]),
    ) {
        let (q, start) = (Id(q), Id(start));
        let chain = chain_to_root(q, start, b);
        prop_assert!(chain.len() <= Id::num_digits(b));
        if start == q {
            prop_assert!(chain.is_empty());
        } else {
            prop_assert_eq!(*chain.last().unwrap(), q);
            let mut prev = suffix_len(q, start, b);
            for v in &chain {
                let s = suffix_len(q, *v, b);
                prop_assert!(s > prev || *v == q);
                prev = s;
            }
        }
        // Parent is deterministic.
        prop_assert_eq!(parent_vertex(q, start, b), parent_vertex(q, start, b));
    }

    /// Siblings under the same parent share their trailing digits: the
    /// parent of any vertex agrees with the query on one more trailing
    /// digit than the vertex did.
    #[test]
    fn parent_extends_suffix_by_at_least_one(q in any::<u128>(), v in any::<u128>()) {
        prop_assume!(q != v);
        let (q, v) = (Id(q), Id(v));
        let p = parent_vertex(q, v, 4).unwrap();
        prop_assert!(suffix_len(q, p, 4) > suffix_len(q, v, 4));
    }
}
