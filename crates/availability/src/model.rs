//! The per-endsystem availability model (paper §3.2.1).
//!
//! Each endsystem maintains two distributions, updated every time it comes
//! back up and pushed to its metadata replica set:
//!
//! * the **down-duration** distribution — how long unavailability spells
//!   last (log-bucketed, seconds to weeks);
//! * the **up-event** distribution — the hour of day (0–23) at which the
//!   endsystem comes back up.
//!
//! If the up-event distribution is heavily concentrated in some hour
//! (peak-to-mean ratio > 2) the endsystem classifies itself as *periodic*
//! and return-time predictions use the hour histogram; otherwise they use
//! the down-duration distribution **conditioned on the time already spent
//! down**. A member of the replica set records when it noticed the
//! endsystem fail and evaluates the model on its behalf.

use std::sync::LazyLock;

use seaweed_types::{Duration, LogBuckets, Time};

/// Bucketing of the down-duration distribution: 24 geometric buckets (26
/// with under/overflow), which together with nibble-packed hour counts
/// fill the 48-byte wire format.
static DOWN_BUCKETS: LazyLock<LogBuckets> =
    LazyLock::new(|| LogBuckets::new(Duration::SECOND, Duration::from_days(14), 24));
/// Fallback return delay when no history exists at all.
const DEFAULT_RETURN: Duration = Duration::from_hours(8);

/// Tuning knobs for the availability model.
#[derive(Clone, Copy, Debug)]
pub struct ModelConfig {
    /// Peak-to-mean threshold above which an endsystem self-classifies as
    /// periodic (paper: 2).
    pub periodic_threshold: f64,
    /// Minimum up-event observations before the periodic classification
    /// is trusted. With `o` observations spread over distinct hours the
    /// peak-to-mean ratio is at least `24/o`, so any endsystem with fewer
    /// than 12 observations would trivially pass the threshold — the
    /// paper's rule implicitly assumes a month of history. Below this
    /// count we use the (robust) down-duration distribution instead.
    pub min_periodic_observations: u32,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            periodic_threshold: 2.0,
            min_periodic_observations: 8,
        }
    }
}

/// A prediction of when an unavailable endsystem will next become
/// available: a small discrete distribution over *delays from now*.
#[derive(Clone, Debug, Default)]
pub struct ReturnPrediction {
    /// `(delay, weight)` pairs; weights sum to 1 (unless empty).
    pub mass: Vec<(Duration, f64)>,
}

impl ReturnPrediction {
    /// A point mass at a single delay.
    #[must_use]
    pub fn point(delay: Duration) -> Self {
        ReturnPrediction {
            mass: vec![(delay, 1.0)],
        }
    }

    /// Expected delay until return.
    #[must_use]
    pub fn expected(&self) -> Duration {
        let secs: f64 = self.mass.iter().map(|(d, w)| d.as_secs_f64() * w).sum();
        Duration::from_secs_f64(secs)
    }

    /// Probability the endsystem is back within `delay`.
    #[must_use]
    pub fn cdf(&self, delay: Duration) -> f64 {
        self.mass
            .iter()
            .filter(|(d, _)| *d <= delay)
            .map(|(_, w)| w)
            .sum()
    }

    /// The `q`-quantile of the return delay: the smallest mass point whose
    /// cumulative weight reaches `q` (clamped to `0..=1`). `None` when the
    /// prediction is empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        if self.mass.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let mut points = self.mass.clone();
        points.sort_by_key(|&(d, _)| d);
        let total: f64 = points.iter().map(|(_, w)| w).sum();
        let mut acc = 0.0;
        for (d, w) in &points {
            acc += w;
            if acc >= q * total {
                return Some(*d);
            }
        }
        points.last().map(|&(d, _)| d)
    }
}

/// The availability model proper.
#[derive(Clone, Debug)]
pub struct AvailabilityModel {
    config: ModelConfig,
    /// Histogram of observed down durations.
    down_hist: Vec<u32>,
    /// Histogram of up-event hour of day.
    up_hours: [u32; 24],
    observations: u32,
}

impl AvailabilityModel {
    #[must_use]
    pub fn new(config: ModelConfig) -> Self {
        let down_hist = vec![0u32; DOWN_BUCKETS.len()];
        AvailabilityModel {
            config,
            down_hist,
            up_hours: [0; 24],
            observations: 0,
        }
    }

    /// Records an up event: the endsystem was down for `down_span` and
    /// came back at `up_at`.
    pub fn observe_up(&mut self, down_span: Duration, up_at: Time) {
        let idx = DOWN_BUCKETS.index(down_span);
        self.down_hist[idx] = self.down_hist[idx].saturating_add(1);
        self.up_hours[up_at.hour_of_day() as usize] += 1;
        self.observations = self.observations.saturating_add(1);
    }

    /// Builds a model by replaying an endsystem's up intervals through
    /// `until` — how the endsystem itself learns during warmup.
    #[must_use]
    pub fn learn_from_intervals(
        config: ModelConfig,
        intervals: &[(Time, Time)],
        until: Time,
    ) -> Self {
        let mut model = AvailabilityModel::new(config);
        let mut prev_down: Option<Time> = None;
        for &(up, down) in intervals {
            if up > until {
                break;
            }
            if let Some(d) = prev_down {
                model.observe_up(up.since(d), up);
            } else if up > Time::ZERO {
                // Down from the epoch until first up.
                model.observe_up(up.since(Time::ZERO), up);
            }
            if down <= until {
                prev_down = Some(down);
            }
        }
        model
    }

    #[must_use]
    pub fn observations(&self) -> u32 {
        self.observations
    }

    /// Peak-to-mean ratio of the up-hour distribution (0 when empty).
    #[must_use]
    pub fn peak_to_mean(&self) -> f64 {
        let total: u32 = self.up_hours.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let peak = *self.up_hours.iter().max().expect("24 entries") as f64;
        peak / (total as f64 / 24.0)
    }

    /// Does this endsystem follow a periodic (diurnal) cycle?
    #[must_use]
    pub fn is_periodic(&self) -> bool {
        self.observations >= self.config.min_periodic_observations
            && self.peak_to_mean() > self.config.periodic_threshold
    }

    /// Predicts when the endsystem will next become available given that
    /// it has been unavailable since `down_since` and it is `now`.
    #[must_use]
    pub fn predict_return(&self, now: Time, down_since: Time) -> ReturnPrediction {
        if self.observations == 0 {
            return ReturnPrediction::point(DEFAULT_RETURN);
        }
        if self.is_periodic() {
            self.predict_periodic(now)
        } else {
            self.predict_from_durations(now.saturating_since(down_since))
        }
    }

    /// Periodic prediction: mass on the next occurrence of each observed
    /// up hour, weighted by the hour histogram. An endsystem that
    /// habitually comes up at 08:00–09:00 yields most mass at the next
    /// morning.
    fn predict_periodic(&self, now: Time) -> ReturnPrediction {
        let total: u32 = self.up_hours.iter().sum();
        let into_day = now.micros_into_day();
        let mut mass = Vec::new();
        for (h, &count) in self.up_hours.iter().enumerate() {
            if count == 0 {
                continue;
            }
            // Next occurrence of the middle of hour h.
            let target = (h as u64) * Duration::HOUR.as_micros() + Duration::HOUR.as_micros() / 2;
            let delay_us = if target > into_day {
                target - into_day
            } else {
                target + Duration::DAY.as_micros() - into_day
            };
            mass.push((
                Duration::from_micros(delay_us),
                f64::from(count) / f64::from(total),
            ));
        }
        mass.sort_by_key(|(d, _)| *d);
        ReturnPrediction { mass }
    }

    /// Non-periodic prediction: the down-duration distribution conditioned
    /// on having already been down for `already_down`.
    fn predict_from_durations(&self, already_down: Duration) -> ReturnPrediction {
        let buckets = &*DOWN_BUCKETS;
        let mut mass = Vec::new();
        let mut total = 0.0;
        for (i, &count) in self.down_hist.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let mid = buckets.midpoint(i);
            if mid <= already_down {
                continue; // this spell has outlived those observations
            }
            let remaining = mid - already_down;
            mass.push((remaining, f64::from(count)));
            total += f64::from(count);
        }
        if mass.is_empty() {
            // Down longer than anything observed. A memoryless process
            // would take about one mean spell longer; guard with the
            // elapsed time for heavy-tailed behaviour, capped at a week.
            let mean = self.mean_down_span().max(Duration::from_mins(10));
            let guess = mean.max(already_down / 2).min(Duration::from_days(7));
            return ReturnPrediction::point(guess);
        }
        for m in &mut mass {
            m.1 /= total;
        }
        mass.sort_by_key(|(d, _)| *d);
        ReturnPrediction { mass }
    }

    /// Mean observed down span (zero with no observations).
    #[must_use]
    pub fn mean_down_span(&self) -> Duration {
        let buckets = &*DOWN_BUCKETS;
        let mut total = 0.0f64;
        let mut count = 0u64;
        for (i, &c) in self.down_hist.iter().enumerate() {
            total += buckets.midpoint(i).as_secs_f64() * f64::from(c);
            count += u64::from(c);
        }
        if count == 0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(total / count as f64)
        }
    }

    /// Serialized wire size in bytes. The paper's Table 1 reports the
    /// availability model at a = 48 bytes: 24 packed hour counters plus a
    /// compact down-duration sketch. Exactly [`AvailabilityModel::encode`]'s
    /// output length.
    #[must_use]
    pub fn wire_size(&self) -> u32 {
        48
    }

    /// Serializes to the 48-byte wire format: 24 hour counters packed as
    /// saturating nibbles (12 bytes), the 26-bucket down-duration
    /// histogram as saturating u8s (26 bytes), a u16 observation count
    /// and an 8-byte reserved tail. Counter saturation (15 per hour slot,
    /// 255 per duration bucket) is immaterial: classification uses ratios
    /// and prediction uses relative weights.
    #[must_use]
    pub fn encode(&self) -> [u8; 48] {
        let mut out = [0u8; 48];
        #[allow(clippy::needless_range_loop)] // indexing two strided arrays
        for i in 0..12 {
            let lo = self.up_hours[2 * i].min(15) as u8;
            let hi = self.up_hours[2 * i + 1].min(15) as u8;
            out[i] = lo | (hi << 4);
        }
        debug_assert_eq!(
            self.down_hist.len(),
            26,
            "wire format fixes 26 down buckets"
        );
        for (i, &c) in self.down_hist.iter().take(26).enumerate() {
            out[12 + i] = c.min(255) as u8;
        }
        out[38..40]
            .copy_from_slice(&(self.observations.min(u32::from(u16::MAX)) as u16).to_le_bytes());
        out
    }

    /// Reconstructs a model from its 48-byte wire form (the counters are
    /// quantized; predictions from the decoded model match the original
    /// up to that quantization).
    #[must_use]
    pub fn decode(bytes: &[u8; 48], config: ModelConfig) -> Self {
        let mut m = AvailabilityModel::new(config);
        #[allow(clippy::needless_range_loop)] // indexing two strided arrays
        for i in 0..12 {
            m.up_hours[2 * i] = u32::from(bytes[i] & 0x0f);
            m.up_hours[2 * i + 1] = u32::from(bytes[i] >> 4);
        }
        let n = m.down_hist.len().min(26);
        for i in 0..n {
            m.down_hist[i] = u32::from(bytes[12 + i]);
        }
        m.observations = u32::from(u16::from_le_bytes([bytes[38], bytes[39]]));
        m
    }
}

impl Default for AvailabilityModel {
    fn default() -> Self {
        AvailabilityModel::new(ModelConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(day: u64, hour: u64) -> Time {
        Time::ZERO + Duration::from_days(day) + Duration::from_hours(hour)
    }

    #[test]
    fn periodic_classification() {
        let mut m = AvailabilityModel::default();
        // Comes up at 08:00 every day for two weeks.
        for day in 0..14 {
            m.observe_up(Duration::from_hours(14), at(day, 8));
        }
        assert!(m.peak_to_mean() > 20.0);
        assert!(m.is_periodic());

        let mut flat = AvailabilityModel::default();
        for day in 0..24 {
            flat.observe_up(Duration::from_hours(3), at(day, day % 24));
        }
        assert!((flat.peak_to_mean() - 1.0).abs() < 1e-9);
        assert!(!flat.is_periodic());
    }

    #[test]
    fn periodic_prediction_targets_morning() {
        let mut m = AvailabilityModel::default();
        for day in 0..10 {
            m.observe_up(Duration::from_hours(14), at(day, 8));
        }
        // It is 23:00; machine went down at 18:00. Expect return around
        // 08:30 next morning = 9.5 h away.
        let now = at(20, 23);
        let pred = m.predict_return(now, at(20, 18));
        let exp = pred.expected();
        assert!(
            (exp.as_secs_f64() - 9.5 * 3600.0).abs() < 3600.0,
            "expected ~9.5h, got {exp}"
        );
        // And the CDF jumps to 1 at that point.
        assert!(pred.cdf(Duration::from_hours(8)) < 0.5);
        assert!(pred.cdf(Duration::from_hours(11)) > 0.99);
    }

    #[test]
    fn duration_prediction_conditions_on_elapsed() {
        let cfg = ModelConfig::default();
        let mut m = AvailabilityModel::new(cfg);
        // Mixture: many 1-hour downs, some ~2-day downs. Hours are spread
        // one-per-hour (peak-to-mean 24/16 = 1.5 < 2) so classification
        // stays non-periodic.
        for i in 0..12u64 {
            m.observe_up(Duration::from_hours(1), at(i, 2 * i));
        }
        for i in 0..4u64 {
            m.observe_up(Duration::from_days(2), at(i + 12, 2 * i + 1));
        }
        assert!(!m.is_periodic());
        // Fresh failure: expectation dominated by short downs.
        let fresh = m.predict_return(at(20, 0), at(20, 0)).expected();
        assert!(fresh < Duration::from_hours(16), "fresh {fresh}");
        // Already down 6 hours: the 1-hour mass is excluded.
        let stale = m.predict_return(at(20, 6), at(20, 0)).expected();
        assert!(stale > Duration::from_hours(24), "stale {stale}");
    }

    #[test]
    fn no_history_fallback() {
        let m = AvailabilityModel::default();
        let pred = m.predict_return(at(0, 1), at(0, 0));
        assert_eq!(pred.mass.len(), 1);
        assert_eq!(pred.expected(), DEFAULT_RETURN);
    }

    #[test]
    fn outlived_all_observations_extrapolates() {
        let mut m = AvailabilityModel::default();
        // 13 distinct hours => peak-to-mean 24/13 < 2 => non-periodic.
        for i in 0..13u64 {
            m.observe_up(Duration::from_hours(1), at(i, i));
        }
        // Down for 3 days, longer than every observation: the heavy-tail
        // guard predicts at least half the elapsed spell again, capped at
        // a week.
        let pred = m.predict_return(at(10, 0) + Duration::from_days(3), at(10, 0));
        assert_eq!(pred.mass.len(), 1);
        assert!(pred.expected() >= Duration::from_hours(36));
        assert!(pred.expected() <= Duration::from_days(7));
    }

    #[test]
    fn learn_from_intervals_builds_model() {
        // Office-like: up 08:00-18:00 daily.
        let intervals: Vec<(Time, Time)> = (0..14).map(|d| (at(d, 8), at(d, 18))).collect();
        let m =
            AvailabilityModel::learn_from_intervals(ModelConfig::default(), &intervals, at(14, 0));
        assert!(m.is_periodic());
        assert_eq!(m.observations(), 14);
        // Prediction made Sunday 22:00 should target ~8:30 next morning.
        let pred = m.predict_return(at(20, 22), at(20, 18));
        let exp = pred.expected().as_secs_f64() / 3600.0;
        assert!((exp - 10.5).abs() < 1.0, "expected ~10.5h got {exp:.2}h");
    }

    #[test]
    fn prediction_mass_normalized() {
        let mut m = AvailabilityModel::default();
        for i in 0..20u64 {
            m.observe_up(Duration::from_hours(1 + i % 5), at(i, (i * 3) % 24));
        }
        let pred = m.predict_return(at(25, 3), at(25, 2));
        let total: f64 = pred.mass.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!((pred.cdf(Duration::from_days(30)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn wire_size_matches_table1() {
        assert_eq!(AvailabilityModel::default().wire_size(), 48);
        assert_eq!(AvailabilityModel::default().encode().len(), 48);
    }

    #[test]
    fn codec_roundtrip_preserves_predictions() {
        let mut m = AvailabilityModel::default();
        for day in 0..12 {
            m.observe_up(Duration::from_hours(14), at(day, 8));
        }
        let decoded = AvailabilityModel::decode(&m.encode(), ModelConfig::default());
        assert_eq!(decoded.observations(), m.observations());
        assert_eq!(decoded.is_periodic(), m.is_periodic());
        let now = at(20, 23);
        let a = m.predict_return(now, at(20, 18));
        let b = decoded.predict_return(now, at(20, 18));
        assert_eq!(a.mass.len(), b.mass.len());
        assert!((a.expected().as_secs_f64() - b.expected().as_secs_f64()).abs() < 1.0);
    }

    #[test]
    fn codec_saturates_gracefully() {
        let mut m = AvailabilityModel::default();
        // Far more observations than a u8 counter can hold.
        for i in 0..70_000u64 {
            m.observe_up(Duration::from_hours(1 + i % 3), at(i % 300, 8));
        }
        let decoded = AvailabilityModel::decode(&m.encode(), ModelConfig::default());
        // Quantized, but classification must agree.
        assert_eq!(decoded.is_periodic(), m.is_periodic());
        assert!(decoded.observations() <= u32::from(u16::MAX));
        let a = m.predict_return(at(301, 0), at(300, 20)).expected();
        let b = decoded.predict_return(at(301, 0), at(300, 20)).expected();
        assert!((a.as_secs_f64() - b.as_secs_f64()).abs() < 3600.0);
    }
}
