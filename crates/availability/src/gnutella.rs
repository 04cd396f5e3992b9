//! Synthetic Gnutella-like availability traces (high churn).
//!
//! Figure 10 of the paper re-runs the overhead experiment on a 60-hour
//! Gnutella activity trace with 7,602 endsystems and a mean departure rate
//! of 9.46×10⁻⁵ per online endsystem per second — 23× the Farsite rate.
//! Peer-to-peer availability studies [Saroiu et al., MMCN 2002; Bhagwan et
//! al., IPTPS 2003] report short, roughly exponential sessions with no
//! strong diurnal structure and low overall availability; this generator
//! reproduces those marginals.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seaweed_types::{Duration, Time};

use crate::trace::{AvailabilityTrace, Intervals};

/// Mean up-session length. The paper's departure rate of 9.46e-5 per
/// online second corresponds to a mean session of ~2.94 hours.
const UP_MEAN: Duration = Duration::from_secs((1.0 / 9.46e-5) as u64);
/// Mean down span between sessions.
const DOWN_MEAN: Duration = Duration::from_hours(4);

/// Configuration of the Gnutella-like generator.
#[derive(Clone, Debug)]
pub struct GnutellaConfig {
    pub num_endsystems: usize,
    pub horizon: Duration,
}

/// RNG stream constant for Gnutella trace generation (registered in
/// lint.toml `[[stream]]`).
const GNUTELLA_STREAM: u64 = 0x0097_e11a_c442;

impl Default for GnutellaConfig {
    fn default() -> Self {
        GnutellaConfig {
            num_endsystems: 7_602,
            horizon: Duration::from_hours(60),
        }
    }
}

impl GnutellaConfig {
    /// Small-population config for tests.
    #[must_use]
    pub fn small(num_endsystems: usize, hours: u64) -> Self {
        GnutellaConfig {
            num_endsystems,
            horizon: Duration::from_hours(hours),
        }
    }

    /// Generates the trace, deterministic in `seed`.
    #[must_use]
    pub fn generate(&self, seed: u64) -> AvailabilityTrace {
        let mut rng = StdRng::seed_from_u64(seed ^ GNUTELLA_STREAM);
        let horizon = self.horizon.as_micros();
        let duty =
            UP_MEAN.as_micros() as f64 / (UP_MEAN.as_micros() + DOWN_MEAN.as_micros()) as f64;
        let mut all = Vec::with_capacity(self.num_endsystems);
        for _ in 0..self.num_endsystems {
            let mut iv: Intervals = Vec::new();
            let mut t: u64 = 0;
            let mut up = rng.gen::<f64>() < duty;
            while t < horizon {
                let mean = if up { UP_MEAN } else { DOWN_MEAN };
                let span = exp_sample(&mut rng, mean).max(Duration::from_mins(2));
                let end = t.saturating_add(span.as_micros()).min(horizon);
                if up && end > t {
                    iv.push((Time::from_micros(t), Time::from_micros(end)));
                }
                t = end;
                up = !up;
            }
            all.push(iv);
        }
        AvailabilityTrace::new(all, Time::ZERO + self.horizon)
    }
}

fn exp_sample(rng: &mut StdRng, mean: Duration) -> Duration {
    let u: f64 = rng.gen::<f64>().max(1e-12);
    Duration::from_secs_f64(-mean.as_secs_f64() * u.ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn departure_rate_matches_paper() {
        let cfg = GnutellaConfig::small(3000, 60);
        let trace = cfg.generate(13);
        let stats = trace.stats();
        // Paper: 9.46e-5 departures per online endsystem per second.
        assert!(
            (6.0e-5..=1.4e-4).contains(&stats.departure_rate_per_online_sec),
            "departure rate {:.2e} outside band",
            stats.departure_rate_per_online_sec
        );
        // Availability should be well below enterprise levels.
        assert!(stats.mean_availability < 0.6);
        assert!(stats.mean_availability > 0.2);
    }

    #[test]
    fn churn_is_much_higher_than_farsite() {
        let g = GnutellaConfig::small(1000, 60).generate(1).stats();
        let f = crate::farsite::FarsiteConfig::small(1000, 1)
            .generate(1)
            .0
            .stats();
        assert!(
            g.departure_rate_per_online_sec > 8.0 * f.departure_rate_per_online_sec,
            "gnutella {:.2e} vs farsite {:.2e}",
            g.departure_rate_per_online_sec,
            f.departure_rate_per_online_sec
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = GnutellaConfig::small(50, 10);
        let a = cfg.generate(3);
        let b = cfg.generate(3);
        for n in 0..50 {
            assert_eq!(a.intervals(n), b.intervals(n));
        }
    }
}
