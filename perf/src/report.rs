//! Turns the repetitions of a run into named metrics, checks them, and
//! prints/writes the result.

use std::fmt::Write as _;

use crate::classify::Class;
use crate::hostprobe;
use crate::outcome::{Outcome, QueryOutcome, Setup, Stage};
use crate::provenance::{self, Provenance};
use crate::stats::{median, Samples};
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy)]
pub struct RunInfo {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    pub smoke: bool,
}

/// The repetitions of one mode (untraced or traced) of a run.
#[derive(Debug, Default)]
pub struct Reps {
    pub outcomes: Vec<Outcome>,
    /// Engine-only calibration runs, spread over the process's life.
    pub calibrations: Vec<Outcome>,
    /// Set-up times of extra, set-up-only repetitions.
    pub setups: Vec<Setup>,
    /// The host probe's quiet time over the whole process; 0 without a
    /// probe.
    pub quiet_probe_s: f64,
    /// `VmHWM` when the first repetition ended, MB.
    pub peak_rss_mb: f64,
}

/// Host seconds of the timed phase the outcomes repeat, each slice at
/// its fastest repetition (see `hostprobe`).
fn quiet_run_s(outcomes: &[Outcome]) -> f64 {
    let slices: Vec<&[f64]> = outcomes.iter().map(|o| o.slice_s.as_slice()).collect();
    hostprobe::quiet_seconds(&slices)
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-query samples of one repetition.
struct UserSamples {
    latency_ms: Samples,
    delay_s: Samples,
    mean_delay_s: f64,
    mean_err_pp: f64,
    censored: usize,
}

fn user_samples(out: &Outcome) -> UserSamples {
    let q = &out.queries;
    let mean = |f: fn(&QueryOutcome) -> f64| {
        if q.is_empty() {
            0.0
        } else {
            q.iter().map(f).sum::<f64>() / q.len() as f64
        }
    };
    UserSamples {
        latency_ms: Samples::new(q.iter().filter_map(|q| q.predictor_latency_ms).collect()),
        delay_s: Samples::new(q.iter().map(|q| q.delay_c90.secs).collect()),
        mean_delay_s: mean(|q| q.delay_c90.secs),
        mean_err_pp: mean(|q| q.predictor_err_pp),
        censored: q.iter().filter(|q| q.delay_c90.censored).count(),
    }
}

/// End-to-end metrics. Set-up time is the median over the repetitions,
/// the two timed phases are summed slice by slice over each slice's
/// fastest repetition, all in reference-host seconds; the simulated
/// metrics are identical in every repetition (checked by
/// [`RunResult::build`]) and read off the first.
fn end_to_end(info: &RunInfo, reps: &Reps) -> Vec<Metric> {
    let first = &reps.outcomes[0];
    let setups: Vec<f64> = reps
        .outcomes
        .iter()
        .map(|o| &o.setup)
        .chain(&reps.setups)
        .map(|s| hostprobe::normalise(s.total_s, s.probe_s))
        .collect();
    let setup_s = median(&setups).unwrap_or(0.0);
    let mut m = vec![
        metric("setup_s", setup_s, "s"),
        metric(
            "run_s",
            hostprobe::normalise(quiet_run_s(&reps.outcomes), reps.quiet_probe_s),
            "s",
        ),
        metric(
            "engine_only_s",
            hostprobe::normalise(quiet_run_s(&reps.calibrations), reps.quiet_probe_s),
            "s",
        ),
        metric("peak_rss_mb", reps.peak_rss_mb, "MB"),
        metric("tx_bytes_per_online_s", first.tx_bytes_per_online_s, "B/s"),
    ];
    if info.workload != Workload::EngineOnly {
        let u = user_samples(first);
        m.push(metric(
            "predictor_latency_p50_ms",
            u.latency_ms.median().unwrap_or(0.0),
            "ms",
        ));
        m.push(metric("delay_c90_mean_s", u.mean_delay_s, "s"));
        m.push(metric(
            "predictor_accuracy_pct",
            100.0 - u.mean_err_pp,
            "pct",
        ));
    }
    m
}

/// Per-layer metrics of one traced repetition. `untraced_run_s` is the
/// same scenario's timed phase without tracing, in the same process.
fn per_layer(out: &Outcome, untraced_run_s: f64, calibration_events_per_s: f64) -> Vec<Metric> {
    let mut m = Vec::new();
    let totals = out.ledger.as_ref().map(|l| l.totals()).unwrap_or_default();
    // In a partitioned run the rows hold CPU time of every worker.
    let workers = out.exec.map_or(1, |e| e.workers) as f64;
    let run_ns = out.run_s * 1e9 * workers;
    let mut closure = 0.0;
    let (mut allocs, mut alloc_bytes) = (0u64, 0u64);
    for c in Class::ALL {
        let r = totals[c.index()];
        let share = r.self_ns as f64 / run_ns.max(1.0);
        closure += share;
        allocs += r.allocs;
        alloc_bytes += r.alloc_bytes;
        m.push(metric(
            format!("{}.events", c.name()),
            r.events as f64,
            "count",
        ));
        m.push(metric(
            format!("{}.ns_per_event", c.name()),
            ratio(r.self_ns, r.events),
            "ns",
        ));
        m.push(metric(format!("{}.share", c.name()), share, "ratio"));
        m.push(metric(
            format!("{}.allocs_per_event", c.name()),
            ratio(r.allocs, r.events),
            "count",
        ));
    }
    m.push(metric("ledger.closure", closure, "ratio"));
    for stage in Stage::ALL {
        m.push(metric(
            format!("{}_s", stage.span_name()),
            out.setup.stage_s[stage as usize],
            "s",
        ));
    }

    m.push(metric("sim.events", out.events as f64, "count"));
    m.push(metric("sim.messages", out.messages as f64, "count"));
    m.push(metric(
        "sim.events_per_s",
        out.events as f64 / untraced_run_s.max(1e-9),
        "1/s",
    ));
    m.push(metric(
        "sim.ns_per_event",
        untraced_run_s * 1e9 / (out.events as f64).max(1.0),
        "ns",
    ));
    m.push(metric(
        "sim.calibration_events_per_s",
        calibration_events_per_s,
        "1/s",
    ));
    // 48 bits survive a round trip through a JSON number.
    m.push(metric(
        "sim.fingerprint",
        (out.fingerprint() & ((1 << 48) - 1)) as f64,
        "hash",
    ));
    m.push(metric(
        "sim.drop_ratio",
        ratio(out.drops, out.messages),
        "ratio",
    ));
    for (class, bytes) in ["overlay", "maintenance", "query"].iter().zip(out.tx_bytes) {
        m.push(metric(format!("sim.tx_bytes.{class}"), bytes as f64, "B"));
    }

    m.push(metric(
        "alloc.count_per_event",
        ratio(allocs, out.events),
        "count",
    ));
    m.push(metric(
        "alloc.bytes_per_event",
        ratio(alloc_bytes, out.events),
        "B",
    ));
    m.push(metric(
        "mem.bytes_per_endsystem",
        out.heap_after_run.max(0) as f64 / out.endsystems as f64,
        "B",
    ));
    m.push(metric(
        "mem.rss_after_setup_mb",
        out.rss_after_setup_mb,
        "MB",
    ));
    m.push(metric(
        "trace.overhead_frac",
        out.run_s / untraced_run_s.max(1e-9) - 1.0,
        "ratio",
    ));

    let u = user_samples(out);
    m.push(metric("user.queries", u.delay_s.count() as f64, "count"));
    m.push(metric(
        "user.predictor_latency_p90_ms",
        u.latency_ms.tail(0.9).unwrap_or(0.0),
        "ms",
    ));
    m.push(metric(
        "user.delay_c90_p50_s",
        u.delay_s.median().unwrap_or(0.0),
        "s",
    ));
    m.push(metric(
        "user.delay_c90_p90_s",
        u.delay_s.tail(0.9).unwrap_or(0.0),
        "s",
    ));
    m.push(metric(
        "user.delay_c90_censored",
        u.censored as f64,
        "count",
    ));
    m.push(metric("user.predictor_err_pp", u.mean_err_pp, "pp"));

    let o = &out.overlay;
    m.push(metric("overlay.joins", o.joins as f64, "count"));
    m.push(metric(
        "overlay.leafset_repairs",
        o.leafset_repairs as f64,
        "count",
    ));
    m.push(metric("overlay.probes", o.probes as f64, "count"));
    m.push(metric(
        "overlay.mean_hops",
        ratio(o.total_hops, o.delivered_messages),
        "count",
    ));
    m.push(metric(
        "overlay.join_retry_ratio",
        ratio(o.join_retries, o.joins),
        "ratio",
    ));
    let c = &out.core;
    m.push(metric("core.meta_pushes", c.meta_pushes as f64, "count"));
    m.push(metric(
        "core.disseminate_msgs",
        c.disseminate_msgs as f64,
        "count",
    ));
    m.push(metric(
        "core.predictor_reports",
        c.predictor_reports as f64,
        "count",
    ));
    m.push(metric(
        "core.result_submissions",
        c.result_submissions as f64,
        "count",
    ));
    m.push(metric(
        "core.result_retry_ratio",
        ratio(c.result_retries, c.result_submissions),
        "ratio",
    ));
    m.push(metric(
        "core.dissem_reissue_ratio",
        ratio(c.dissem_reissues, c.disseminate_msgs),
        "ratio",
    ));
    m.push(metric(
        "core.vertex_replications",
        c.vertex_replications as f64,
        "count",
    ));
    m.push(metric(
        "core.oracle_findings",
        (out.violations.len() + out.oracle_notes.len()) as f64,
        "count",
    ));
    m.push(metric("core.scan_quanta", c.scan_quanta as f64, "count"));
    m.push(metric(
        "core.shared_scan_ratio",
        ratio(c.shared_scan_queries, c.result_submissions),
        "ratio",
    ));

    let e = out.exec.unwrap_or_default();
    let mean_busy = ratio(e.busy_ns, e.shards as u64);
    m.push(metric(
        "exec.speedup_vs_serial",
        if out.run_s > 0.0 {
            e.serial_run_s / out.run_s
        } else {
            0.0
        },
        "ratio",
    ));
    m.push(metric(
        "exec.busy_frac",
        e.busy_ns as f64 / run_ns.max(1.0),
        "ratio",
    ));
    m.push(metric(
        "exec.imbalance",
        if mean_busy > 0.0 {
            e.max_shard_busy_ns as f64 / mean_busy
        } else {
            0.0
        },
        "ratio",
    ));
    m.push(metric(
        "exec.cross_partition_clones",
        e.cross_partition_clones as f64,
        "count",
    ));
    m.push(metric(
        "exec.rss_ratio_vs_serial",
        ratio(
            e.peak_heap_bytes.max(0) as u64,
            e.serial_peak_heap_bytes.max(0) as u64,
        ),
        "ratio",
    ));
    m
}

/// Per-metric median over the traced repetitions: counts are identical
/// in each, host times are not.
fn median_metrics(per_rep: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = per_rep.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = per_rep.iter().map(|rep| rep[i].value).collect();
            metric(m.name.clone(), median(&values).unwrap_or(0.0), m.unit)
        })
        .collect()
}

/// Everything a run reports.
#[derive(Debug)]
pub struct RunResult {
    info: RunInfo,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Printed beside the metrics, not part of the result object: the
    /// raw host seconds and probe time behind the normalised metrics.
    raw: Vec<Metric>,
    problems: Vec<String>,
    notes: Vec<String>,
    provenance: Provenance,
    spans_jsonl: Option<String>,
    repetitions: usize,
    fingerprint: u64,
}

impl RunResult {
    #[must_use]
    pub fn build(info: &RunInfo, plain: &Reps, traced: &Reps) -> RunResult {
        let reps = if info.traced { traced } else { plain };
        let first = &reps.outcomes[0];
        let reference = plain.outcomes[0].fingerprint();
        let mut problems: Vec<String> = first.violations.clone();
        // A repetition, traced or not, is the same simulation: any
        // counter that differs is a determinism failure.
        for (i, o) in plain.outcomes.iter().chain(&traced.outcomes).enumerate() {
            if o.fingerprint() != reference {
                problems.push(format!(
                    "repetition {i} fingerprint {:x} differs from the first's {reference:x}",
                    o.fingerprint()
                ));
            }
        }
        for (i, o) in reps.outcomes.iter().enumerate() {
            if o.slice_s.len() != first.slice_s.len() {
                problems.push(format!(
                    "repetition {i} ran in {} slices, the first in {}",
                    o.slice_s.len(),
                    first.slice_s.len()
                ));
            }
        }
        let failed_queries = first.queries.iter().filter(|q| q.failure.is_some()).count();
        for q in first.queries.iter().filter(|q| q.failure.is_some()) {
            problems.push(format!(
                "query injected at {} s failed: {:?}",
                q.injected.as_secs_f64(),
                q.failure
            ));
        }
        // engine_only attempts one thing: the fixed event count.
        let attempted = (first.queries.len() as u64).max(1);

        let calibration = plain.calibrations.first().map_or(0.0, |c| {
            c.events as f64 / quiet_run_s(&plain.calibrations).max(1e-9)
        });
        let metrics = if info.traced {
            let untraced_run_s = plain.outcomes[0].run_s;
            let per_rep: Vec<Vec<Metric>> = traced
                .outcomes
                .iter()
                .map(|o| per_layer(o, untraced_run_s, calibration))
                .collect();
            // Allocation and event counts are exact: they must repeat.
            for (i, rep) in per_rep.iter().enumerate().skip(1) {
                for (a, b) in per_rep[0].iter().zip(rep) {
                    if a.unit == "count" && a.value != b.value {
                        problems.push(format!(
                            "{} differs between traced repetitions 0 and {i}: {} vs {}",
                            a.name, a.value, b.value
                        ));
                    }
                }
            }
            median_metrics(&per_rep)
        } else {
            end_to_end(info, plain)
        };
        // Any problem fails at least one attempt.
        let failed = (failed_queries as u64)
            .max(u64::from(!problems.is_empty()))
            .min(attempted);
        let last = plain.outcomes.last().expect("at least one repetition");
        let raw = if info.traced {
            Vec::new()
        } else {
            vec![
                metric("host.run_raw_s", last.run_s, "s"),
                metric("host.setup_raw_s", last.setup.total_s, "s"),
                metric("host.quiet_probe_s", plain.quiet_probe_s, "s"),
                metric("host.repetitions", plain.outcomes.len() as f64, "count"),
                metric(
                    "host.calibrations",
                    plain.calibrations.len() as f64,
                    "count",
                ),
            ]
        };
        RunResult {
            info: *info,
            raw,
            notes: first.oracle_notes.clone(),
            correct: problems.is_empty(),
            attempted,
            failed,
            metrics,
            problems,
            provenance: provenance::collect(info.seed, calibration),
            spans_jsonl: traced
                .outcomes
                .last()
                .map(|o| o.spans.to_jsonl(info.workload.name())),
            repetitions: reps.outcomes.len(),
            fingerprint: reference,
        }
    }

    fn metrics_json(&self) -> String {
        let mut s = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("string write");
        }
        s.push('}');
        s
    }

    /// Every metric as `name value unit`, problems on stderr, then the
    /// JSON object on the last line of stdout.
    pub fn print(&self) {
        for m in self.metrics.iter().chain(&self.raw) {
            println!("{} {} {}", m.name, m.value, m.unit);
        }
        for p in &self.problems {
            eprintln!("perf: {}: {p}", self.info.workload.name());
        }
        for n in &self.notes {
            eprintln!("perf: {}: (not failed) {n}", self.info.workload.name());
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json()
        );
    }

    /// Writes the result with its provenance, and the traced run's
    /// spans, under `perf/out/`.
    pub fn write_artifacts(&self) -> std::io::Result<()> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir)?;
        let name = self.info.workload.name();
        let mode = if self.info.traced { "ledger" } else { "e2e" };
        let smoke = if self.info.smoke { ".smoke" } else { "" };
        let body = format!(
            "{{\"workload\":\"{name}\",\"mode\":\"{mode}\",\"smoke\":{},\"repetitions\":{},\"fingerprint\":\"{:016x}\",{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}\n",
            self.info.smoke,
            self.repetitions,
            self.fingerprint,
            self.provenance.json_fields(),
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json()
        );
        std::fs::write(dir.join(format!("{name}{smoke}.{mode}.json")), body)?;
        if let Some(spans) = &self.spans_jsonl {
            std::fs::write(dir.join(format!("{name}{smoke}.spans.jsonl")), spans)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names listed under `section` of `BENCHMARK.json`, which keeps
    /// one metric or workload per line.
    fn names_in(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        text.lines()
            .skip_while(|l| !l.contains(&format!("\"{section}\": [")))
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with(']'))
            .map(|l| {
                let rest = l.split("\"name\": \"").nth(1).expect("a name per line");
                rest.split('"').next().expect("closing quote").to_owned()
            })
            .collect()
    }

    fn blank_reps() -> Reps {
        Reps {
            outcomes: vec![Outcome::blank(1, Setup::default(), 0.0)],
            ..Reps::default()
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_printed() {
        let info = RunInfo {
            workload: Workload::FarsiteSteady,
            seed: 1,
            traced: false,
            smoke: true,
        };
        let printed: Vec<String> = end_to_end(&info, &blank_reps())
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names_in("end_to_end"), printed);
        let printed: Vec<String> = per_layer(&blank_reps().outcomes[0], 1.0, 1.0)
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names_in("per_layer"), printed);
    }

    #[test]
    fn benchmark_json_lists_the_workloads_the_driver_can_judge() {
        // Not `engine_only`: it has no queries, and the driver wants
        // every end-to-end metric from every workload. Not
        // `federation_par`: two threads meeting at a barrier per window
        // took 8 s, 13 s and 17 s for one seed on one shared 2-vCPU host
        // in one afternoon, which no bound up to the driver's 0.25 can
        // hold. Both stay workloads of the binary and of `run.sh`.
        let expected: Vec<&str> = Workload::ALL
            .into_iter()
            .filter(|w| !matches!(w, Workload::EngineOnly | Workload::FederationPar))
            .map(Workload::name)
            .collect();
        assert_eq!(names_in("workloads"), expected);
    }

    #[test]
    fn simulated_metrics_come_from_the_first_repetition_and_host_times_from_quiet_slices() {
        let mut reps = blank_reps();
        for (slice_s, tx) in [([2.0, 1.0], 7.0), ([0.5, 1.5], 7.0), ([1.0, 2.0], 7.0)] {
            let mut o = Outcome::blank(1, Setup::default(), 0.0);
            o.run_s = slice_s.iter().sum();
            o.slice_s = slice_s.to_vec();
            o.tx_bytes_per_online_s = tx;
            reps.outcomes.push(o);
        }
        reps.outcomes.remove(0);
        let info = RunInfo {
            workload: Workload::EngineOnly,
            seed: 1,
            traced: false,
            smoke: true,
        };
        let m = end_to_end(&info, &reps);
        let get = |name: &str| m.iter().find(|m| m.name == name).expect("metric").value;
        assert_eq!(get("run_s"), 1.5);
        assert_eq!(get("tx_bytes_per_online_s"), 7.0);
        // engine_only has no queries, so no query metrics.
        assert!(m.iter().all(|m| m.name != "delay_c90_mean_s"));
    }
}
