//! What one repetition of a workload produces: host times, simulated
//! counters, per-query user-visible outcomes and their correctness.

use seaweed_core::{QueryState, QueryTimeline, SeaweedStats};
use seaweed_overlay::OverlayStats;
use seaweed_sim::BandwidthReport;
use seaweed_store::{AggFunc, Aggregate};
use seaweed_types::{Duration, Time};

use crate::ledger::{Ledger, SpanLog};
use crate::stats::{censor, Censored};

/// The stages of set-up, in the order the trace workloads run them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Topology,
    Trace,
    WorkloadGen,
    StoreSummary,
    StoreExecute,
    Overlay,
    Replay,
}

impl Stage {
    pub const ALL: [Stage; 7] = [
        Stage::Topology,
        Stage::Trace,
        Stage::WorkloadGen,
        Stage::StoreSummary,
        Stage::StoreExecute,
        Stage::Overlay,
        Stage::Replay,
    ];

    /// The stage's span name; its metric is this plus `_s`.
    #[must_use]
    pub fn span_name(self) -> &'static str {
        match self {
            Stage::Topology => "setup.topology",
            Stage::Trace => "setup.trace",
            Stage::WorkloadGen => "setup.workload_gen",
            Stage::StoreSummary => "setup.store_summary",
            Stage::StoreExecute => "setup.store_execute",
            Stage::Overlay => "setup.overlay",
            Stage::Replay => "setup.replay",
        }
    }
}

/// Host seconds of set-up. Stages a workload does not have stay 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Indexed by [`Stage`].
    pub stage_s: [f64; Stage::ALL.len()],
    /// First line of set-up to first timed event (the stages plus
    /// whatever lies between them).
    pub total_s: f64,
    /// Mean host-probe time beside the set-up; 0 without a probe.
    pub probe_s: f64,
}

/// Why a query counts as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    NoPredictor,
    /// More rows at the origin than the population holds: exactly-once
    /// aggregation is broken.
    RowsExceedPopulation,
    /// The final aggregate disagrees with the central recomputation.
    WrongAggregate,
    /// Rows the run must have collected are missing.
    Incomplete,
}

/// One query as its user saw it.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    pub injected: Time,
    /// Injection → predictor at the origin, simulated ms.
    pub predictor_latency_ms: Option<f64>,
    /// Injection → 0.9 of the population's relevant rows, simulated s,
    /// censored at the horizon.
    pub delay_c90: Censored,
    /// Mean |predicted − actual| rows as a percentage of the population's
    /// relevant rows, over the checkpoints inside the horizon.
    pub predictor_err_pp: f64,
    pub rows: u64,
    pub failure: Option<Failure>,
}

/// Ground truth for one query, computed centrally over the data plane.
#[derive(Debug, Clone, Copy)]
pub struct Truth {
    /// The aggregate over every endsystem, up or down.
    pub population: Aggregate,
    /// Rows the origin must hold by the horizon for the run to count as
    /// correct: the whole population on all-up workloads, 0 under churn
    /// (which endsystems reported is not visible from outside).
    pub required_rows: u64,
}

/// Delays after injection at which predicted and actual row counts are
/// compared (plus the horizon itself).
const CHECKPOINTS: [Duration; 3] = [
    Duration::MINUTE,
    Duration::HOUR,
    Duration(8 * Duration::HOUR.0),
];

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Does `got` fit what `truth` allows? With every row in, the aggregate
/// must equal the central one; with some rows missing only bounds can be
/// checked from outside.
fn aggregate_consistent(got: &Aggregate, truth: &Aggregate) -> bool {
    if got.rows == truth.rows {
        return close(got.sum, truth.sum)
            && (got.rows == 0 || (got.min == truth.min && got.max == truth.max));
    }
    // Flow columns are non-negative, so partial sums are bounded by the
    // population's; extrema by its extrema.
    match got.func {
        AggFunc::Count => true,
        _ => {
            got.sum <= truth.sum * (1.0 + 1e-9)
                && (got.rows == 0 || (got.min >= truth.min && got.max <= truth.max))
        }
    }
}

/// Derives a query's user-visible outcome and checks it. Delays count
/// from `due`, when the user submitted the query, which under storm
/// admission can precede its injection.
#[must_use]
pub fn query_outcome(
    q: &QueryState,
    tl: &QueryTimeline,
    truth: &Truth,
    due: Time,
    horizon: Time,
) -> QueryOutcome {
    let total = truth.population.rows as f64;
    let queued = tl.injected.saturating_since(due);
    let delay_c90 = censor(
        tl.time_to_completeness(0.9, total).map(|d| d + queued),
        due,
        horizon,
    );
    let watched = horizon.saturating_since(tl.injected);
    let predictor_err_pp = match (&q.predictor, total > 0.0) {
        (Some(p), true) => {
            let checkpoints = CHECKPOINTS.into_iter().filter(|&d| d < watched);
            let mut sum = 0.0;
            let mut points = 0u32;
            for d in checkpoints.chain([watched]) {
                let predicted = p.expected_rows_within(d);
                let actual = tl.rows_at(tl.injected + d) as f64;
                sum += (predicted - actual).abs() / total * 100.0;
                points += 1;
            }
            sum / f64::from(points)
        }
        _ => 0.0,
    };
    let got = q.latest.unwrap_or(Aggregate::empty(truth.population.func));
    let failure = if q.predictor.is_none() {
        Some(Failure::NoPredictor)
    } else if got.rows > truth.population.rows {
        Some(Failure::RowsExceedPopulation)
    } else if got.rows < truth.required_rows {
        Some(Failure::Incomplete)
    } else if !aggregate_consistent(&got, &truth.population) {
        Some(Failure::WrongAggregate)
    } else {
        None
    };
    QueryOutcome {
        injected: tl.injected,
        predictor_latency_ms: q
            .predictor_at
            .map(|at| at.saturating_since(due).as_micros() as f64 / 1e3),
        delay_c90,
        predictor_err_pp,
        rows: got.rows,
        failure,
    }
}

/// Partitioned-executor figures (federation workload only).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecFigures {
    pub workers: usize,
    /// Σ host ns inside shard dispatch, over all shards.
    pub busy_ns: u64,
    /// Largest single shard's share of it.
    pub max_shard_busy_ns: u64,
    pub shards: usize,
    pub cross_partition_clones: u64,
    /// Peak heap bytes held during the run (traced runs only).
    pub peak_heap_bytes: i64,
    /// The same scenario under `ExecKind::Serial` (traced runs only).
    pub serial_run_s: f64,
    pub serial_peak_heap_bytes: i64,
}

/// Everything one repetition measured.
#[derive(Debug)]
pub struct Outcome {
    pub endsystems: usize,
    pub setup: Setup,
    /// Host seconds of the timed phase.
    pub run_s: f64,
    /// Host seconds of each slice of the timed phase (the stretches
    /// between probe points), in order; they tile `run_s`.
    pub slice_s: Vec<f64>,
    pub events: u64,
    pub messages: u64,
    pub drops: u64,
    pub tx_bytes: [u64; 3],
    pub tx_bytes_per_online_s: f64,
    pub queries: Vec<QueryOutcome>,
    pub overlay: OverlayStats,
    pub core: SeaweedStats,
    /// Invariant violations that make the run incorrect (`ChaosOracle`,
    /// the event-count check, serial/parallel divergence).
    pub violations: Vec<String>,
    /// `ChaosOracle` findings on a workload where the parent commit
    /// itself trips the oracle: counted and printed, not failed.
    pub oracle_notes: Vec<String>,
    /// Heap bytes held when the run ended, before teardown (traced).
    pub heap_after_run: i64,
    pub rss_after_setup_mb: f64,
    pub exec: Option<ExecFigures>,
    pub ledger: Option<Ledger>,
    pub spans: SpanLog,
}

impl Outcome {
    /// An outcome with the set-up times filled in and nothing run yet.
    #[must_use]
    pub fn blank(endsystems: usize, setup: Setup, rss_after_setup_mb: f64) -> Outcome {
        Outcome {
            endsystems,
            setup,
            run_s: 0.0,
            slice_s: Vec::new(),
            events: 0,
            messages: 0,
            drops: 0,
            tx_bytes: [0; 3],
            tx_bytes_per_online_s: 0.0,
            queries: Vec::new(),
            overlay: OverlayStats::default(),
            core: SeaweedStats::default(),
            violations: Vec::new(),
            oracle_notes: Vec::new(),
            heap_after_run: 0,
            rss_after_setup_mb,
            exec: None,
            ledger: None,
            spans: SpanLog::default(),
        }
    }

    /// Folds the engine's bandwidth report into the outcome.
    pub fn take_report(&mut self, report: &BandwidthReport) {
        self.tx_bytes = report.total_tx;
        self.tx_bytes_per_online_s = report.mean_tx_total_per_online_bps();
        self.drops = report.drops.total();
    }

    /// FNV-1a over every deterministic counter and per-query result: two
    /// runs of one seed must agree on it whatever the host, the tracing
    /// mode or the executor.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        use std::fmt::Write as _;
        let mut text = String::new();
        write!(
            text,
            "{} {} {} {} {:?} {:?} {:?}",
            self.endsystems,
            self.events,
            self.messages,
            self.drops,
            self.tx_bytes,
            self.overlay,
            self.core
        )
        .expect("string write");
        for q in &self.queries {
            write!(
                text,
                " q {} {:?} {:?} {} {}",
                q.injected.as_micros(),
                q.predictor_latency_ms,
                q.delay_c90,
                q.predictor_err_pp.to_bits(),
                q.rows
            )
            .expect("string write");
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in text.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg(rows: u64, sum: f64, min: f64, max: f64) -> Aggregate {
        Aggregate {
            func: AggFunc::Sum,
            rows,
            sum,
            min,
            max,
        }
    }

    #[test]
    fn a_complete_aggregate_must_equal_the_central_one() {
        let truth = agg(10, 55.0, 1.0, 10.0);
        assert!(aggregate_consistent(&agg(10, 55.0, 1.0, 10.0), &truth));
        assert!(!aggregate_consistent(&agg(10, 54.0, 1.0, 10.0), &truth));
        assert!(!aggregate_consistent(&agg(10, 55.0, 2.0, 10.0), &truth));
    }

    #[test]
    fn a_partial_aggregate_is_bounded_by_the_population() {
        let truth = agg(10, 55.0, 1.0, 10.0);
        assert!(aggregate_consistent(&agg(4, 20.0, 2.0, 9.0), &truth));
        assert!(!aggregate_consistent(&agg(4, 60.0, 2.0, 9.0), &truth));
        assert!(!aggregate_consistent(&agg(4, 20.0, 0.5, 9.0), &truth));
        assert!(aggregate_consistent(
            &agg(0, 0.0, f64::INFINITY, f64::NEG_INFINITY),
            &truth
        ));
    }
}
