//! Sample statistics for the end-to-end metrics: nearest-rank
//! percentiles with the "ten samples beyond it" rule, right-censoring of
//! delays at the horizon, and the span self-time arithmetic.

use seaweed_types::{Duration, Time};

/// A tail percentile is only reported when at least this many samples
/// lie beyond it; with fewer the estimate is one or two outliers.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// A sorted sample set.
#[derive(Debug, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// # Panics
    /// Panics on a NaN sample (every caller derives samples from
    /// integer microseconds).
    #[must_use]
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        Samples(values)
    }

    /// How many samples the statistics rest on; reported beside them.
    #[must_use]
    pub fn count(&self) -> usize {
        self.0.len()
    }

    /// 1-based nearest rank of quantile `q` in (0, 1] among `n` samples.
    fn rank(q: f64, n: usize) -> usize {
        ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
    }

    /// The median (nearest rank: an observed sample, so a simulated
    /// metric repeats bit-for-bit); defined for any non-empty set.
    #[must_use]
    pub fn median(&self) -> Option<f64> {
        let n = self.0.len();
        (n > 0).then(|| self.0[Self::rank(0.5, n) - 1])
    }

    /// Nearest-rank quantile `q`, or `None` unless at least
    /// [`MIN_SAMPLES_BEYOND`] samples lie strictly beyond its rank.
    #[must_use]
    pub fn tail(&self, q: f64) -> Option<f64> {
        let n = self.0.len();
        let rank = Self::rank(q, n);
        (n >= rank + MIN_SAMPLES_BEYOND).then(|| self.0[rank - 1])
    }
}

/// Median of host-time repetitions (mean of the middle two for an even
/// count). `None` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let s = Samples::new(values.to_vec());
    let n = s.0.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s.0[n / 2]),
        _ => Some((s.0[n / 2 - 1] + s.0[n / 2]) / 2.0),
    }
}

/// A delay that may not have been observed before the run ended: the
/// value is then the time the query was watched for (a lower bound), and
/// `censored` says so.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Censored {
    pub secs: f64,
    pub censored: bool,
}

/// Right-censors `delay` at `horizon` for a query injected at `injected`.
#[must_use]
pub fn censor(delay: Option<Duration>, injected: Time, horizon: Time) -> Censored {
    let watched = horizon.saturating_since(injected);
    match delay {
        Some(d) if d <= watched => Censored {
            secs: d.as_secs_f64(),
            censored: false,
        },
        _ => Censored {
            secs: watched.as_secs_f64(),
            censored: true,
        },
    }
}

/// A span's self time: its duration minus the part its child spans
/// cover. Children are measured inside the parent, so the clamp only
/// absorbs clock granularity.
#[must_use]
pub fn self_time(span: u64, children: u64) -> u64 {
    span.saturating_sub(children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> Time {
        Time::ZERO + Duration::from_secs(s)
    }

    #[test]
    fn median_is_nearest_rank_and_counts_samples() {
        let s = Samples::new(vec![5.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.count(), 4);
        assert_eq!(s.median(), Some(2.0));
        assert_eq!(Samples::new(vec![7.0]).median(), Some(7.0));
        assert_eq!(Samples::new(vec![]).median(), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Samples::new(hundred);
        // p90 of 100: rank 90, ten samples beyond.
        assert_eq!(s.tail(0.9), Some(90.0));
        // p95 of 100: five beyond, refused.
        assert_eq!(s.tail(0.95), None);
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        // p90 of 99: rank 90, nine beyond, refused.
        assert_eq!(Samples::new(ninety_nine).tail(0.9), None);
        // 24 queries support nothing above p58.
        let s24 = Samples::new((1..=24).map(f64::from).collect());
        assert_eq!(s24.tail(0.9), None);
        assert_eq!(s24.tail(0.58), Some(14.0));
        assert_eq!(Samples::new(vec![]).tail(0.9), None);
    }

    #[test]
    fn host_median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn delays_are_censored_at_the_horizon() {
        let seen = censor(Some(Duration::from_secs(30)), secs(100), secs(200));
        assert_eq!(
            seen,
            Censored {
                secs: 30.0,
                censored: false
            }
        );
        // Never reached: the watched interval is the lower bound.
        let never = censor(None, secs(100), secs(200));
        assert_eq!(
            never,
            Censored {
                secs: 100.0,
                censored: true
            }
        );
        // Reached only after the horizon counts as not reached.
        let late = censor(Some(Duration::from_secs(150)), secs(100), secs(200));
        assert!(late.censored);
        assert_eq!(late.secs, 100.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        assert_eq!(self_time(1_000, 300), 700);
        assert_eq!(self_time(1_000, 0), 1_000);
        // A child can read a few ns longer than its parent's clock pair.
        assert_eq!(self_time(100, 104), 0);
    }
}
