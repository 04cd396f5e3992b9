//! Parallel fan-out for multi-seed / multi-config sweeps.
//!
//! Every simulation run stays single-threaded and deterministic (the
//! engine's contract); sweeps over seeds or parameter settings are
//! embarrassingly parallel across runs. [`run_sweep`] distributes the
//! items of a sweep over a fixed pool of `std::thread` workers (the
//! dependency set has no rayon/crossbeam) and returns results in input
//! order, so CSV output is byte-identical whatever the thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

use crate::cli::Args;

/// Inner-executor worker budget while an outer sweep occupies `jobs`
/// threads: the cores the sweep is *not* using, floored at one. Keeps
/// `--jobs` fan-out composed with [`seaweed_sim::exec`]'s partition
/// workers from oversubscribing the machine (`jobs × partitions` threads
/// otherwise).
#[must_use]
pub fn inner_worker_budget(jobs: usize) -> usize {
    let avail = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    avail.saturating_sub(jobs).max(1)
}

/// Worker-thread count for a sweep of `runs` items: the `--jobs N` flag
/// if given, else the machine's available parallelism — always clamped
/// to `1..=runs`.
#[must_use]
pub fn jobs(args: &Args, runs: usize) -> usize {
    let avail = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    args.get("jobs", avail).clamp(1, runs.max(1))
}

/// Runs `f(index, &item)` for every item, fanning out over `jobs`
/// worker threads, and returns the results in input order. Items are
/// handed out dynamically (work stealing by shared counter), so uneven
/// run times do not serialize the sweep. With `jobs <= 1` everything
/// runs on the calling thread — handy for debugging and exact baseline
/// comparisons.
///
/// # Panics
/// A panic inside `f` propagates to the caller once the sweep finishes
/// joining its workers.
pub fn run_sweep<T, R, F>(inputs: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = inputs.len();
    if jobs <= 1 || n <= 1 {
        return inputs.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // The sweep itself occupies `jobs` threads; cap any partitioned
    // executor *inside* a run to the leftover cores for the duration.
    let prior_budget = seaweed_sim::exec::set_thread_budget(inner_worker_budget(jobs.min(n)));
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    #[expect(
        clippy::disallowed_methods,
        reason = "result channel of the sanctioned bench worker pool; ordering restored by seed index before any output"
    )]
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    #[expect(
        clippy::disallowed_methods,
        reason = "parallel.rs IS the sanctioned bench worker pool: simulations are independent per seed and share nothing"
    )]
    thread::scope(|s| {
        for _ in 0..jobs.min(n) {
            let tx = tx.clone();
            let (next, inputs, f) = (&next, &inputs, &f);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i, &inputs[i]);
                if tx.send((i, r)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, r) in rx {
            results[i] = Some(r);
        }
    });
    seaweed_sim::exec::set_thread_budget(prior_budget);
    results
        .into_iter()
        .map(|r| r.expect("every sweep item completes"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `run_sweep` scopes the process-global exec thread budget, so
    /// tests that drive it in parallel must not interleave.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn results_come_back_in_input_order() {
        let _g = LOCK.lock().unwrap();
        let inputs: Vec<u64> = (0..40).collect();
        let out = run_sweep(inputs.clone(), 8, |i, &x| {
            // Uneven work so completion order differs from input order.
            let spin = (x * 7919) % 97;
            let mut acc = 0u64;
            for k in 0..spin * 1000 {
                acc = acc.wrapping_add(k);
            }
            (i as u64, x * 2, acc & 1)
        });
        for (i, (idx, doubled, _)) in out.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(*doubled, inputs[i] * 2);
        }
    }

    #[test]
    fn single_job_runs_inline() {
        let out = run_sweep(vec![1, 2, 3], 1, |_, &x| x + 10);
        assert_eq!(out, vec![11, 12, 13]);
    }

    #[test]
    fn parallel_matches_serial() {
        let _g = LOCK.lock().unwrap();
        let inputs: Vec<u64> = (0..25).map(|i| i * 3 + 1).collect();
        let serial = run_sweep(inputs.clone(), 1, |i, &x| x.wrapping_mul(i as u64 + 1));
        let parallel = run_sweep(inputs, 6, |i, &x| x.wrapping_mul(i as u64 + 1));
        assert_eq!(serial, parallel);
    }

    /// While a multi-job sweep is running, the inner partitioned
    /// executor's worker budget is capped to the cores the sweep is not
    /// occupying (`max(1, avail − jobs)`); after the sweep it is
    /// restored. Serialized with a lock because the budget is a process
    /// global and the test harness runs tests concurrently.
    #[test]
    fn sweep_caps_inner_executor_budget() {
        let _g = LOCK.lock().unwrap();
        let avail = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let jobs = 4;
        let expected = avail.saturating_sub(jobs).max(1);
        assert_eq!(inner_worker_budget(jobs), expected);

        let prior = seaweed_sim::exec::set_thread_budget(0);
        let budgets = run_sweep(vec![(); 8], jobs, |_, ()| {
            seaweed_sim::exec::thread_budget()
        });
        assert!(
            budgets.iter().all(|&b| b == expected),
            "inner budget during sweep: {budgets:?}, expected {expected}"
        );
        // Restored to "whole machine" once the sweep is done.
        assert_eq!(seaweed_sim::exec::thread_budget(), avail);
        // And an inner parallel config resolves within the cap mid-sweep.
        seaweed_sim::exec::set_thread_budget(inner_worker_budget(jobs));
        let cfg = seaweed_sim::exec::ExecConfig {
            kind: seaweed_sim::exec::ExecKind::Parallel,
            partitions: 64,
            workers: 0,
        };
        assert!(cfg.effective_workers() <= expected);
        seaweed_sim::exec::set_thread_budget(prior);
    }

    #[test]
    fn jobs_clamps_to_run_count() {
        let args = Args::default();
        assert_eq!(jobs(&args, 1), 1);
        assert!(jobs(&args, 64) >= 1);
        let forced = Args::parse_flags(["--jobs".to_owned(), "3".to_owned()]).unwrap();
        assert_eq!(jobs(&forced, 64), 3);
        assert_eq!(jobs(&forced, 2), 2);
    }
}
