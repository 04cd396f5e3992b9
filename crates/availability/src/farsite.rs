//! Synthetic Farsite-like availability traces.
//!
//! The original Farsite study [Bolosky et al., SIGMETRICS 2000] probed
//! 51,663 endsystems on the Microsoft corporate network hourly for ~4
//! weeks. The paper uses it for Figure 1 and as the availability input to
//! every simulation, reporting: mean availability 81%, a clear diurnal and
//! weekly periodic pattern, and a mean departure rate of 4.06×10⁻⁶ per
//! online endsystem per second.
//!
//! This generator reproduces those marginals with a three-profile mixture
//! typical of a corporate desktop fleet:
//!
//! * **Always-on** machines (servers, lab machines, desktops never turned
//!   off): up continuously except for rare multi-hour outages.
//! * **Office** machines with diurnal cycles: powered on around 08:30 on
//!   weekdays, powered off in the evening — except that some evenings the
//!   owner leaves the machine on overnight, and most weekends the machine
//!   is off.
//! * **Flaky** machines cycling with exponential up/down spans.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seaweed_types::{Duration, Time};

use crate::trace::{AvailabilityTrace, Intervals};

/// Availability profile class of an endsystem.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Profile {
    AlwaysOn,
    Office,
    Flaky,
}

/// Always-on machines: mean time between outages and mean outage span.
const ALWAYS_ON_MTBF: Duration = Duration::from_days(18);
const ALWAYS_ON_OUTAGE: Duration = Duration::from_hours(3);
/// Office machines: mean arrival hour (fractional, 24h clock), stddev.
const OFFICE_ARRIVAL_HOUR: f64 = 8.5;
const OFFICE_ARRIVAL_SD: f64 = 0.8;
/// Mean departure hour, stddev.
const OFFICE_DEPARTURE_HOUR: f64 = 18.0;
const OFFICE_DEPARTURE_SD: f64 = 1.2;
/// Probability an office machine is used on a weekend day.
const OFFICE_WEEKEND_PROB: f64 = 0.12;
/// Flaky machines: mean exponential up and down spans.
const FLAKY_UP_MEAN: Duration = Duration::from_hours(10);
const FLAKY_DOWN_MEAN: Duration = Duration::from_hours(4);

/// Configuration of the Farsite-like generator: population, horizon and
/// the profile mix; each profile's own shape is the constants above.
#[derive(Clone, Debug)]
pub struct FarsiteConfig {
    pub num_endsystems: usize,
    pub horizon: Duration,
    /// Mixture weights (normalized internally).
    pub weight_always_on: f64,
    pub weight_office: f64,
    pub weight_flaky: f64,
    /// Probability an office machine is left on overnight on a weekday
    /// evening (it then stays up until the next departure time).
    pub office_leave_on_prob: f64,
}

/// RNG stream constant for Farsite trace generation (registered in
/// lint.toml `[[stream]]`).
const FARSITE_STREAM: u64 = 0x0fa2_517e_7ace;

impl Default for FarsiteConfig {
    /// Defaults calibrated so the generated trace matches the paper's
    /// reported statistics: mean availability ≈ 0.81 and departure rate
    /// within a small factor of 4.06e-6 per online endsystem per second.
    fn default() -> Self {
        FarsiteConfig {
            num_endsystems: 51_663,
            horizon: Duration::WEEK * 4,
            weight_always_on: 0.58,
            weight_office: 0.34,
            weight_flaky: 0.08,
            office_leave_on_prob: 0.45,
        }
    }
}

impl FarsiteConfig {
    /// Small-population config for tests and examples.
    #[must_use]
    pub fn small(num_endsystems: usize, weeks: u64) -> Self {
        FarsiteConfig {
            num_endsystems,
            horizon: Duration::WEEK * weeks,
            ..FarsiteConfig::default()
        }
    }

    /// Generates the trace (deterministic in `seed`) together with each
    /// endsystem's assigned profile.
    #[must_use]
    pub fn generate(&self, seed: u64) -> (AvailabilityTrace, Vec<Profile>) {
        let mut rng = StdRng::seed_from_u64(seed ^ FARSITE_STREAM);
        let total = self.weight_always_on + self.weight_office + self.weight_flaky;
        assert!(total > 0.0, "all profile weights zero");
        let mut intervals = Vec::with_capacity(self.num_endsystems);
        let mut profiles = Vec::with_capacity(self.num_endsystems);
        for _ in 0..self.num_endsystems {
            let pick = rng.gen::<f64>() * total;
            let profile = if pick < self.weight_always_on {
                Profile::AlwaysOn
            } else if pick < self.weight_always_on + self.weight_office {
                Profile::Office
            } else {
                Profile::Flaky
            };
            let iv = match profile {
                Profile::AlwaysOn => self.gen_always_on(&mut rng),
                Profile::Office => self.gen_office(&mut rng),
                Profile::Flaky => self.gen_flaky(&mut rng),
            };
            intervals.push(iv);
            profiles.push(profile);
        }
        (
            AvailabilityTrace::new(intervals, Time::ZERO + self.horizon),
            profiles,
        )
    }

    fn gen_always_on(&self, rng: &mut StdRng) -> Intervals {
        let horizon = self.horizon.as_micros();
        let mut iv = Vec::new();
        let mut t: u64 = 0;
        loop {
            // Up until the next outage (exponential MTBF).
            let up_span = exp_sample(rng, ALWAYS_ON_MTBF);
            let up_end = t.saturating_add(up_span.as_micros()).min(horizon);
            if up_end > t {
                iv.push((Time::from_micros(t), Time::from_micros(up_end)));
            }
            if up_end >= horizon {
                break;
            }
            let outage = exp_sample(rng, ALWAYS_ON_OUTAGE).max(Duration::from_mins(10));
            t = up_end.saturating_add(outage.as_micros());
            if t >= horizon {
                break;
            }
        }
        iv
    }

    fn gen_office(&self, rng: &mut StdRng) -> Intervals {
        let horizon_days = (self.horizon.as_micros() / Duration::DAY.as_micros()) as i64;
        let mut iv: Intervals = Vec::new();
        // State: the machine may already be on (left on from "before" the
        // trace); treat day -1 as a weekday with leave-on probability.
        let mut on_since: Option<u64> = if rng.gen::<f64>() < self.office_leave_on_prob {
            Some(0)
        } else {
            None
        };
        for day in 0..horizon_days {
            let weekday = (day % 7) < 5; // epoch is a Monday
            let active_today = weekday || rng.gen::<f64>() < OFFICE_WEEKEND_PROB;
            if !active_today {
                // If left on from before, power off mid-morning (cleaner
                // helpdesk sweep) — models weekend shutdowns.
                if let Some(start) = on_since.take() {
                    let off = day_time(day, 10.0 + rng.gen::<f64>() * 4.0);
                    push_span(&mut iv, start, off, self.horizon);
                }
                continue;
            }
            let arrive = day_time(
                day,
                gauss(rng, OFFICE_ARRIVAL_HOUR, OFFICE_ARRIVAL_SD).clamp(5.0, 12.0),
            );
            let depart = day_time(
                day,
                gauss(rng, OFFICE_DEPARTURE_HOUR, OFFICE_DEPARTURE_SD).clamp(13.0, 23.5),
            );
            let start = match on_since.take() {
                Some(s) => s, // was left on overnight; keep running
                None => arrive,
            };
            if rng.gen::<f64>() < self.office_leave_on_prob {
                // Left on tonight; span continues into subsequent days.
                on_since = Some(start);
            } else {
                push_span(&mut iv, start, depart, self.horizon);
            }
        }
        if let Some(start) = on_since {
            push_span(&mut iv, start, self.horizon.as_micros(), self.horizon);
        }
        iv
    }

    fn gen_flaky(&self, rng: &mut StdRng) -> Intervals {
        let horizon = self.horizon.as_micros();
        let mut iv = Vec::new();
        // Start up or down proportional to duty cycle.
        let duty = FLAKY_UP_MEAN.as_micros() as f64
            / (FLAKY_UP_MEAN.as_micros() + FLAKY_DOWN_MEAN.as_micros()) as f64;
        let mut t: u64 = 0;
        let mut up = rng.gen::<f64>() < duty;
        while t < horizon {
            let span = if up {
                exp_sample(rng, FLAKY_UP_MEAN).max(Duration::from_mins(5))
            } else {
                exp_sample(rng, FLAKY_DOWN_MEAN).max(Duration::from_mins(5))
            };
            let end = t.saturating_add(span.as_micros()).min(horizon);
            if up && end > t {
                iv.push((Time::from_micros(t), Time::from_micros(end)));
            }
            t = end;
            up = !up;
        }
        iv
    }
}

/// Absolute microsecond timestamp for fractional `hour` on `day`.
fn day_time(day: i64, hour: f64) -> u64 {
    (day as u64) * Duration::DAY.as_micros() + (hour * 3.6e9) as u64
}

fn push_span(iv: &mut Intervals, start_us: u64, end_us: u64, horizon: Duration) {
    let end = end_us.min(horizon.as_micros());
    let start = start_us.min(end);
    if end > start {
        // Merge with a preceding abutting/overlapping span if any.
        if let Some(last) = iv.last_mut() {
            if last.1.as_micros() >= start {
                last.1 = Time::from_micros(last.1.as_micros().max(end));
                return;
            }
        }
        iv.push((Time::from_micros(start), Time::from_micros(end)));
    }
}

/// Exponential sample with the given mean.
fn exp_sample(rng: &mut StdRng, mean: Duration) -> Duration {
    let u: f64 = rng.gen::<f64>().max(1e-12);
    Duration::from_secs_f64(-mean.as_secs_f64() * u.ln())
}

/// Gaussian sample via Box-Muller (keeps us off external distributions).
fn gauss(rng: &mut StdRng, mean: f64, sd: f64) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    mean + sd * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_matches_paper_statistics() {
        let cfg = FarsiteConfig::small(3000, 4);
        let (trace, profiles) = cfg.generate(42);
        let stats = trace.stats();
        // Paper: mean availability 81%. Accept a band around it.
        assert!(
            (0.76..=0.86).contains(&stats.mean_availability),
            "availability {:.3} outside calibration band",
            stats.mean_availability
        );
        // Paper: departure rate 4.06e-6 per online endsystem per second.
        // Accept the right order of magnitude.
        assert!(
            (1.0e-6..=1.2e-5).contains(&stats.departure_rate_per_online_sec),
            "departure rate {:.2e} outside band",
            stats.departure_rate_per_online_sec
        );
        // All three profiles present.
        assert!(profiles.contains(&Profile::AlwaysOn));
        assert!(profiles.contains(&Profile::Office));
        assert!(profiles.contains(&Profile::Flaky));
    }

    #[test]
    fn diurnal_pattern_visible() {
        let cfg = FarsiteConfig::small(2000, 2);
        let (trace, _) = cfg.generate(7);
        // Availability mid-Tuesday working hours should exceed 3am.
        let tue_2pm = Time::ZERO + Duration::from_days(1) + Duration::from_hours(14);
        let tue_3am = Time::ZERO + Duration::from_days(1) + Duration::from_hours(3);
        let day = trace.fraction_up(tue_2pm);
        let night = trace.fraction_up(tue_3am);
        assert!(
            day > night + 0.05,
            "no diurnal swing: day {day:.3} night {night:.3}"
        );
    }

    #[test]
    fn weekend_dip_visible() {
        let cfg = FarsiteConfig::small(2000, 2);
        let (trace, _) = cfg.generate(11);
        let wed_2pm = Time::ZERO + Duration::from_days(2) + Duration::from_hours(14);
        let sun_2pm = Time::ZERO + Duration::from_days(6) + Duration::from_hours(14);
        assert!(trace.fraction_up(wed_2pm) > trace.fraction_up(sun_2pm) + 0.05);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = FarsiteConfig::small(100, 1);
        let (t1, p1) = cfg.generate(5);
        let (t2, p2) = cfg.generate(5);
        assert_eq!(p1, p2);
        for n in 0..100 {
            assert_eq!(t1.intervals(n), t2.intervals(n));
        }
        let (t3, _) = cfg.generate(6);
        let differs = (0..100).any(|n| t1.intervals(n) != t3.intervals(n));
        assert!(differs, "different seeds should differ");
    }

    #[test]
    fn office_machines_come_up_in_the_morning() {
        let cfg = FarsiteConfig {
            weight_always_on: 0.0,
            weight_office: 1.0,
            weight_flaky: 0.0,
            office_leave_on_prob: 0.0,
            ..FarsiteConfig::small(300, 2)
        };
        let (trace, _) = cfg.generate(3);
        let mut hour_counts = [0u32; 24];
        for n in 0..300 {
            for &(up, _) in trace.intervals(n) {
                hour_counts[up.hour_of_day() as usize] += 1;
            }
        }
        let total: u32 = hour_counts.iter().sum();
        let morning: u32 = (7..=10).map(|h| hour_counts[h]).sum();
        assert!(total > 0);
        assert!(
            morning as f64 / total as f64 > 0.8,
            "up events not concentrated in the morning: {hour_counts:?}"
        );
    }
}
