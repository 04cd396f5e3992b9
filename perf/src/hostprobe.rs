//! A fixed piece of host work, independent of the repository: the unit
//! in which host-time metrics are expressed.
//!
//! The hosts this runs on are shared, and their speed drifts by 15–20%
//! for minutes at a time — more than the bound a regression is judged
//! by. A probe run next to a timed phase drifts with it; dividing by the
//! probe's time and multiplying by its time on the reference host
//! ([`REFERENCE_S`]) gives *reference-host seconds*, which hold still
//! when the host does not, and put ledgers from different hosts on one
//! scale. The probe shares no code with the program under test, so a
//! change to the simulator cannot hide in it.
//!
//! The kernel is a dependent chain of integer mixing and loads from a
//! 16 KiB table. The table stays in the L1 cache whatever the simulator
//! has just done to the outer caches, so the probe's time depends on the
//! host's speed only, not on the workload beside it (a 64 MiB table took
//! 11 ms alone and 25 ms next to `engine_only`).
//!
//! What the probe does not follow is a neighbour on the shared host
//! filling the outer caches: for five to eight seconds at a time the
//! simulator then runs 1.5–1.7× slower while the probe slows by a tenth
//! (a 512 KiB table and four independent chains fared no better). No
//! division repairs that. Work that is repeated is instead timed slice
//! by slice, each slice's fastest repetition counts ([`quiet_seconds`]),
//! and the sum is scaled by the probe's own quiet time
//! ([`HostProbe::quiet_s`]).

use std::cell::RefCell;
use std::time::Instant;

/// The probe's median time on the reference host (2 vCPU Xeon 2.1 GHz)
/// when it is quiet. A constant: changing it rescales every host-time
/// metric and restarts the benchmark's history.
pub const REFERENCE_S: f64 = 0.00468;

const ARRAY_WORDS: usize = 1 << 12; // 16 KiB of u32
const LOADS: usize = 200_000;
const MIXES_PER_LOAD: usize = 12;

#[derive(Debug)]
pub struct HostProbe {
    array: Vec<u32>,
    /// Every run's time so far.
    runs: RefCell<Vec<f64>>,
}

impl HostProbe {
    #[must_use]
    pub fn new() -> Self {
        let array = (0..ARRAY_WORDS as u32)
            .map(|i| i.wrapping_mul(0x9e37_79b9) >> 7)
            .collect();
        HostProbe {
            array,
            runs: RefCell::new(Vec::new()),
        }
    }

    /// One run of the kernel; host seconds.
    #[must_use]
    pub fn run_once(&self) -> f64 {
        let t0 = Instant::now();
        let mask = ARRAY_WORDS as u64 - 1;
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        for _ in 0..LOADS {
            // The next address depends on the value just loaded.
            x = x.wrapping_add(u64::from(self.array[(x & mask) as usize]));
            for _ in 0..MIXES_PER_LOAD {
                x = (x ^ (x >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            }
        }
        std::hint::black_box(x);
        let s = t0.elapsed().as_secs_f64();
        self.runs.borrow_mut().push(s);
        s
    }

    /// The probe's time when the host leaves it alone: the lower quartile
    /// of every run so far (a few hundred per process); 0 before the
    /// first.
    #[must_use]
    pub fn quiet_s(&self) -> f64 {
        let mut runs = self.runs.borrow().clone();
        runs.sort_by(f64::total_cmp);
        runs.get(runs.len() / 4).copied().unwrap_or(0.0)
    }
}

/// Host seconds of a timed phase that was repeated, each slice counted
/// at its fastest repetition. `slices[r][i]` is slice `i` of repetition
/// `r`; every repetition does the same work in the same slices. A
/// neighbour's burst slows whichever slices it falls on, and falls on
/// other slices in the next repetition. One repetition is its plain sum.
#[must_use]
pub fn quiet_seconds(slices: &[&[f64]]) -> f64 {
    let Some(first) = slices.first() else {
        return 0.0;
    };
    (0..first.len())
        .map(|i| {
            slices
                .iter()
                .filter_map(|rep| rep.get(i))
                .fold(f64::INFINITY, |a, &b| a.min(b))
        })
        .sum()
}

/// Host seconds → reference-host seconds, given the probe's time next
/// to the measurement; unchanged when no probe ran (`probe_s` 0).
#[must_use]
pub fn normalise(host_s: f64, probe_s: f64) -> f64 {
    if probe_s > 0.0 {
        host_s * REFERENCE_S / probe_s
    } else {
        host_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_cancels_a_uniform_slowdown() {
        // A host running 20% slow stretches the probe and the phase alike.
        let calm = normalise(10.0, REFERENCE_S);
        let slow = normalise(12.0, REFERENCE_S * 1.2);
        assert!((calm - 10.0).abs() < 1e-12);
        assert!((slow - calm).abs() < 1e-9);
        assert_eq!(normalise(10.0, 0.0), 10.0);
    }

    #[test]
    fn a_burst_on_one_repetition_does_not_count() {
        let calm = [1.0, 2.0, 3.0];
        let burst_early = [1.6, 3.2, 3.0];
        let burst_late = [1.0, 2.0, 4.8];
        assert_eq!(quiet_seconds(&[&burst_early, &burst_late]), 6.0);
        assert_eq!(quiet_seconds(&[&calm]), 6.0);
        // Alone, a repetition is its sum, bursts and all.
        assert!((quiet_seconds(&[&burst_early]) - 7.8).abs() < 1e-12);
        assert_eq!(quiet_seconds(&[]), 0.0);
    }

    #[test]
    fn the_quiet_probe_time_is_the_lower_quartile_of_the_runs() {
        let probe = HostProbe::new();
        assert_eq!(probe.quiet_s(), 0.0);
        probe
            .runs
            .borrow_mut()
            .extend([5.0, 1.0, 4.0, 2.0, 9.0, 3.0, 8.0, 7.0]);
        assert_eq!(probe.quiet_s(), 3.0);
    }
}
