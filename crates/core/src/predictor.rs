//! Completeness predictors (paper §2.1, §3.3).
//!
//! A completeness predictor is "a cumulative histogram of expected row
//! count over time": bucket zero counts rows on endsystems available right
//! now; later buckets count rows expected to become queryable after a
//! given delay, on a log-scaled time axis spanning seconds to weeks.
//! Predictors are aggregated element-wise up the dissemination tree, so
//! their size on the wire is constant regardless of how many endsystems
//! contributed. In memory a predictor stores its delay buckets only up to
//! the highest one ever written: an all-up query touches only the lowest
//! few of fifty, and a storm keeps hundreds of thousands of predictors
//! live.

use std::sync::LazyLock;

use seaweed_availability::ReturnPrediction;
use seaweed_types::{Duration, LogBuckets};

/// Delay buckets in a predictor: [`LogBuckets::standard`]'s count.
const BUCKETS: usize = 50;

/// The one bucketing scheme every predictor uses, which is what lets any
/// two of them merge.
static STANDARD: LazyLock<LogBuckets> = LazyLock::new(|| {
    let buckets = LogBuckets::standard();
    assert_eq!(buckets.len(), BUCKETS, "standard scheme changed size");
    buckets
});

/// A (partial) completeness predictor.
#[derive(Clone, Debug)]
pub struct Predictor {
    /// Rows available immediately (delay "zero").
    now_rows: f64,
    /// Expected rows becoming available in each delay bucket, through the
    /// highest bucket ever written; a bucket past the end holds `0.0`.
    /// A sum or scan over the stored buckets alone is exact: adding the
    /// missing `0.0`s would change no bit.
    later: Vec<f64>,
    /// Number of endsystems folded in (for diagnostics).
    endsystems: u64,
}

impl Predictor {
    #[must_use]
    pub fn new() -> Self {
        Predictor {
            now_rows: 0.0,
            later: Vec::new(),
            endsystems: 0,
        }
    }

    /// Expected rows in delay bucket `i` ([`LogBuckets::standard`]'s
    /// bucket `i`): `0.0` for a bucket never written.
    #[must_use]
    pub fn bucket(&self, i: usize) -> f64 {
        self.later.get(i).copied().unwrap_or(0.0)
    }

    /// Delay bucket `i` for writing, storing it (and every bucket before
    /// it) as `0.0` on first touch.
    fn bucket_mut(&mut self, i: usize) -> &mut f64 {
        if i >= self.later.len() {
            self.later.resize(i + 1, 0.0);
        }
        &mut self.later[i]
    }

    /// Folds in an endsystem that is available now with `rows` relevant
    /// rows.
    pub fn add_available(&mut self, rows: f64) {
        self.now_rows += rows.max(0.0);
        self.endsystems += 1;
    }

    /// Folds in an endsystem that is available but whose scan is queued
    /// behind co-resident queries: its `rows` land after `delay` rather
    /// than immediately, shifting the curve the user sees under query
    /// storms.
    pub fn add_available_delayed(&mut self, rows: f64, delay: Duration) {
        if delay == Duration::ZERO {
            self.add_available(rows);
            return;
        }
        *self.bucket_mut(STANDARD.index(delay)) += rows.max(0.0);
        self.endsystems += 1;
    }

    /// Folds in an unavailable endsystem expected to return according to
    /// `pred`, holding `rows` relevant rows.
    pub fn add_unavailable(&mut self, rows: f64, pred: &ReturnPrediction) {
        let rows = rows.max(0.0);
        let buckets = &*STANDARD;
        for &(delay, weight) in &pred.mass {
            *self.bucket_mut(buckets.index(delay)) += rows * weight;
        }
        self.endsystems += 1;
    }

    /// Merges another predictor, element-wise. A bucket neither side
    /// stores stays unstored: adding `0.0` to it would change nothing.
    pub fn merge(&mut self, other: &Predictor) {
        self.now_rows += other.now_rows;
        if self.later.len() < other.later.len() {
            self.later.resize(other.later.len(), 0.0);
        }
        for (a, b) in self.later.iter_mut().zip(&other.later) {
            *a += b;
        }
        self.endsystems += other.endsystems;
    }

    /// Expected rows queryable within `delay` of the prediction instant
    /// (the cumulative curve the user sees, Figure 2).
    #[must_use]
    pub fn expected_rows_within(&self, delay: Duration) -> f64 {
        let buckets = &*STANDARD;
        let cut = buckets.index(delay);
        let mut total = self.now_rows;
        for (i, &rows) in self.later.iter().enumerate() {
            // A bucket's rows count as arrived once the delay passes its
            // representative (geometric-midpoint) delay.
            if i < cut || (i == cut && buckets.midpoint(i) <= delay) {
                total += rows;
            }
        }
        total
    }

    /// Total rows expected over all time.
    #[must_use]
    pub fn total_rows(&self) -> f64 {
        self.now_rows + self.later.iter().sum::<f64>()
    }

    /// Rows available immediately.
    #[must_use]
    pub fn immediate_rows(&self) -> f64 {
        self.now_rows
    }

    /// Expected completeness (0..=1) at `delay` — what the paper's user
    /// reads off to decide whether to wait.
    #[must_use]
    pub fn completeness_at(&self, delay: Duration) -> f64 {
        let total = self.total_rows();
        if total <= 0.0 {
            return 1.0;
        }
        self.expected_rows_within(delay) / total
    }

    /// Smallest bucketed delay at which expected completeness reaches
    /// `target` (0..=1); `None` if it never does.
    #[must_use]
    pub fn delay_for_completeness(&self, target: f64) -> Option<Duration> {
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
                return Some(STANDARD.midpoint(i));
            }
        }
        None
    }

    /// The cumulative curve as `(delay, expected rows)` points — one per
    /// bucket edge — for plotting (Figure 2, Figures 5–8 left panels).
    #[must_use]
    pub fn curve(&self) -> Vec<(Duration, f64)> {
        let buckets = &*STANDARD;
        let mut out = Vec::with_capacity(BUCKETS + 1);
        let mut acc = self.now_rows;
        out.push((Duration::ZERO, acc));
        for i in 0..BUCKETS {
            acc += self.bucket(i);
            out.push((buckets.midpoint(i), acc));
        }
        out
    }

    #[must_use]
    pub fn endsystems(&self) -> u64 {
        self.endsystems
    }

    /// Serialized size: bucket vector as f32s plus a 16-byte header —
    /// 220 bytes; the paper reports 776 bytes per endsystem for predictor
    /// aggregation including framing and retransmissions. Exactly
    /// [`Predictor::encode`]'s output length.
    #[must_use]
    pub fn wire_size(&self) -> u32 {
        16 + 4 * (BUCKETS as u32 + 1)
    }

    /// Serializes the predictor to its wire format:
    /// `[magic u32][bucket count u32][endsystems u64][now f32][later f32 × n]`,
    /// all little-endian. Row counts are carried as f32 — a predictor is
    /// an estimate; 24 bits of mantissa dwarf its accuracy.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_size() as usize);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&(BUCKETS as u32).to_le_bytes());
        out.extend_from_slice(&self.endsystems.to_le_bytes());
        out.extend_from_slice(&(self.now_rows as f32).to_le_bytes());
        for i in 0..BUCKETS {
            out.extend_from_slice(&(self.bucket(i) as f32).to_le_bytes());
        }
        debug_assert_eq!(out.len(), self.wire_size() as usize);
        out
    }

    /// Decodes a predictor previously produced by [`Predictor::encode`].
    /// Returns `None` on malformed input, which includes a well-formed
    /// encoding over any bucket count but the standard one.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader(bytes);
        if r.u32()? != MAGIC || r.u32()? as usize != BUCKETS {
            return None;
        }
        let endsystems = r.u64()?;
        let now_rows = f64::from(r.f32()?);
        let mut later = vec![0.0; BUCKETS];
        for v in &mut later {
            *v = f64::from(r.f32()?);
        }
        if !r.0.is_empty() {
            return None;
        }
        Some(Predictor {
            now_rows,
            later,
            endsystems,
        })
    }
}

/// Equal when every bucket is, stored or not: [`Predictor::decode`]
/// yields all fifty, a predictor built in memory only those it touched.
impl PartialEq for Predictor {
    fn eq(&self, other: &Self) -> bool {
        self.now_rows == other.now_rows
            && self.endsystems == other.endsystems
            && (0..BUCKETS).all(|i| self.bucket(i) == other.bucket(i))
    }
}

impl Default for Predictor {
    fn default() -> Self {
        Self::new()
    }
}

const MAGIC: u32 = 0x5EA3_EDCF;

/// Tiny little-endian cursor for decoding.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Some(head)
    }

    // The `try_into` conversions cannot fail (`take(n)` returned exactly
    // `n` bytes), but this cursor sits on a message-decode path; route
    // the impossible case into the existing `None` (= malformed input)
    // channel instead of panicking.
    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .and_then(|b| b.try_into().ok())
            .map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .and_then(|b| b.try_into().ok())
            .map(u64::from_le_bytes)
    }

    fn f32(&mut self) -> Option<f32> {
        self.take(4)
            .and_then(|b| b.try_into().ok())
            .map(f32::from_le_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(delay: Duration) -> ReturnPrediction {
        ReturnPrediction::point(delay)
    }

    #[test]
    fn immediate_rows_dominate_at_zero_delay() {
        let mut p = Predictor::new();
        p.add_available(810.0);
        p.add_unavailable(190.0, &point(Duration::from_hours(8)));
        assert_eq!(p.total_rows(), 1000.0);
        assert_eq!(p.immediate_rows(), 810.0);
        assert!((p.completeness_at(Duration::ZERO) - 0.81).abs() < 1e-9);
        assert!((p.completeness_at(Duration::from_hours(9)) - 1.0).abs() < 1e-9);
        assert_eq!(p.endsystems(), 2);
    }

    #[test]
    fn distribution_mass_lands_in_buckets() {
        let mut p = Predictor::new();
        let pred = ReturnPrediction {
            mass: vec![
                (Duration::from_mins(10), 0.5),
                (Duration::from_hours(10), 0.5),
            ],
        };
        p.add_unavailable(100.0, &pred);
        let early = p.expected_rows_within(Duration::from_hours(1));
        assert!((early - 50.0).abs() < 1e-9, "early {early}");
        let late = p.expected_rows_within(Duration::from_hours(20));
        assert!((late - 100.0).abs() < 1e-9);
    }

    #[test]
    fn delayed_available_rows_shift_out_of_bucket_zero() {
        let mut p = Predictor::new();
        p.add_available_delayed(40.0, Duration::ZERO);
        p.add_available_delayed(60.0, Duration::from_mins(5));
        assert_eq!(p.immediate_rows(), 40.0);
        assert_eq!(p.total_rows(), 100.0);
        assert_eq!(p.endsystems(), 2);
        let soon = p.expected_rows_within(Duration::from_secs(1));
        assert!((soon - 40.0).abs() < 1e-9, "queued rows not yet in: {soon}");
        let later = p.expected_rows_within(Duration::from_hours(1));
        assert!((later - 100.0).abs() < 1e-9);
    }

    #[test]
    fn merge_is_commutative_and_additive() {
        let mut a = Predictor::new();
        a.add_available(10.0);
        a.add_unavailable(5.0, &point(Duration::from_secs(30)));
        let mut b = Predictor::new();
        b.add_unavailable(7.0, &point(Duration::from_hours(2)));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.total_rows(), 22.0);
        assert_eq!(ab.endsystems(), 3);
    }

    #[test]
    fn delay_for_completeness_walks_the_curve() {
        let mut p = Predictor::new();
        p.add_available(80.0);
        p.add_unavailable(19.0, &point(Duration::from_hours(1)));
        p.add_unavailable(1.0, &point(Duration::from_days(3)));
        assert_eq!(p.delay_for_completeness(0.5), Some(Duration::ZERO));
        let d99 = p.delay_for_completeness(0.99).unwrap();
        assert!(
            d99 >= Duration::from_mins(30) && d99 <= Duration::from_hours(2),
            "{d99}"
        );
        let d100 = p.delay_for_completeness(1.0).unwrap();
        assert!(d100 >= Duration::from_days(2), "{d100}");
    }

    #[test]
    fn empty_predictor_is_trivially_complete() {
        let p = Predictor::new();
        assert_eq!(p.total_rows(), 0.0);
        assert_eq!(p.completeness_at(Duration::ZERO), 1.0);
        assert_eq!(p.delay_for_completeness(0.9), Some(Duration::ZERO));
    }

    #[test]
    fn curve_is_monotone() {
        let mut p = Predictor::new();
        p.add_available(5.0);
        for h in [1u64, 3, 9, 27] {
            p.add_unavailable(h as f64, &point(Duration::from_hours(h)));
        }
        let curve = p.curve();
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1);
            assert!(w[1].0 >= w[0].0);
        }
        assert!((curve.last().unwrap().1 - p.total_rows()).abs() < 1e-9);
    }

    #[test]
    fn encode_roundtrips_within_f32_precision() {
        let mut p = Predictor::new();
        p.add_available(812_345.0);
        for h in [1u64, 3, 9, 27, 81] {
            p.add_unavailable(1000.0 + h as f64, &point(Duration::from_hours(h)));
        }
        let bytes = p.encode();
        assert_eq!(bytes.len(), p.wire_size() as usize);
        let q = Predictor::decode(&bytes).expect("decodes");
        assert_eq!(q.endsystems(), p.endsystems());
        let rel = (q.total_rows() - p.total_rows()).abs() / p.total_rows();
        assert!(rel < 1e-6, "f32 round-trip error {rel}");
        for d in [
            Duration::ZERO,
            Duration::from_hours(5),
            Duration::from_days(2),
        ] {
            assert!((q.completeness_at(d) - p.completeness_at(d)).abs() < 1e-6);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Predictor::decode(&[]).is_none());
        assert!(Predictor::decode(&[0u8; 220]).is_none());
        let good = Predictor::new().encode();
        // Truncated.
        assert!(Predictor::decode(&good[..good.len() - 1]).is_none());
        // Trailing junk.
        let mut long = good.clone();
        long.push(0);
        assert!(Predictor::decode(&long).is_none());
        // Wrong bucket scheme: well-formed, but over 6 buckets. Every
        // predictor is standard-bucketed, so this is `None`, not a
        // predictor that cannot merge.
        let mut other = good[..16 + 4 * 7].to_vec();
        other[4..8].copy_from_slice(&6u32.to_le_bytes());
        assert!(Predictor::decode(&other).is_none());
    }

    #[test]
    fn an_encoding_reflects_the_state_it_was_taken_from() {
        let mut p = Predictor::new();
        p.add_available(10.0);
        let first = p.encode();
        p.add_unavailable(3.0, &point(Duration::from_hours(1)));
        let second = p.encode();
        assert_ne!(first, second);

        let early = Predictor::decode(&first).expect("decodes");
        assert_eq!((early.endsystems(), early.total_rows()), (1, 10.0));
        assert_eq!(Predictor::decode(&second).expect("decodes"), p);
    }

    #[test]
    fn wire_size_is_constant() {
        let mut p = Predictor::new();
        let before = p.wire_size();
        for i in 0..1000 {
            p.add_available(i as f64);
        }
        assert_eq!(p.wire_size(), before);
        assert!(before < 1024, "predictors must stay small: {before}");
    }
}
