//! The packet-level full-stack runner behind Figures 9 and 10.
//!
//! Builds the complete system — CorpNet-like topology, Pastry overlay,
//! Seaweed protocols, pre-computed Anemone data plane — replays an
//! availability trace, injects queries at given instants, and returns the
//! bandwidth report plus protocol statistics.

use seaweed_availability::AvailabilityTrace;
use seaweed_core::{build_world_with_ids, Precomputed, SeaweedConfig};
use seaweed_overlay::{Overlay, OverlayConfig, OverlayStats};
use seaweed_sim::{BandwidthReport, CorpNetTopology, SimConfig, TrafficClass};
use seaweed_store::{BoundQuery, Query};
use seaweed_types::{Duration, Time};
use seaweed_workload::{flow_schema, AnemoneConfig, QUERY_HTTP_BYTES};

use crate::OutDir;

/// Configuration of a full-stack run.
pub struct FullSimConfig {
    pub seed: u64,
    /// Seed for the endsystemId assignment only (Figure 9(c) varies this
    /// while keeping trace/workload fixed). Defaults to `seed`.
    pub id_seed: u64,
    pub collect_cdf: bool,
    pub seaweed: SeaweedConfig,
    pub overlay: OverlayConfig,
    /// When the Figure 9 query (`QUERY_HTTP_BYTES`) is injected; the
    /// origin is the first available endsystem at that instant.
    pub injections: Vec<Time>,
}

impl FullSimConfig {
    /// Defaults: paper protocol parameters on the CorpNet topology, the
    /// Figure 9 query injected Tuesday 00:00 of week 2 (trace times are
    /// relative to a Monday epoch, mirroring the paper's July 1999
    /// calendar).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FullSimConfig {
            seed,
            id_seed: seed,
            collect_cdf: true,
            // §4.3: histograms pushed with an average period of 17.5 min,
            // randomized phase (the SeaweedConfig default).
            seaweed: SeaweedConfig::default(),
            overlay: OverlayConfig::default(),
            injections: vec![Time::ZERO + Duration::from_days(8)],
        }
    }
}

/// Everything measured in one run.
pub struct FullSimResult {
    pub report: BandwidthReport,
    pub seaweed_stats: seaweed_core::SeaweedStats,
    pub overlay_stats: OverlayStats,
    /// Per injected query: (predictor latency, rows at horizon,
    /// predictor total rows).
    pub queries: Vec<QueryOutcome>,
    pub mean_online: f64,
    /// Messages the engine sent over the run.
    pub messages_sent: u64,
}

pub struct QueryOutcome {
    pub predictor_latency: Option<Duration>,
    pub rows: u64,
    pub predicted_total: f64,
    pub population_rows: u64,
}

/// Figures 9(a) / 10(a): per-online-endsystem bandwidth by hour, split
/// by traffic class.
pub fn write_overhead_timeseries(out: &OutDir, name: &str, report: &BandwidthReport) {
    let rows: Vec<Vec<f64>> = report
        .tx_hours
        .iter()
        .enumerate()
        .map(|(h, agg)| {
            vec![
                h as f64,
                agg.per_online_bps(TrafficClass::Overlay),
                agg.per_online_bps(TrafficClass::Maintenance),
                agg.per_online_bps(TrafficClass::Query),
                agg.total_per_online_bps(),
            ]
        })
        .collect();
    out.write_csv(
        name,
        &[
            "hour",
            "pastry_bps",
            "maintenance_bps",
            "query_bps",
            "total_bps",
        ],
        &rows,
    );
}

/// Figures 9(b) / 10(b): CDF of per-(endsystem, hour) bandwidth.
pub fn write_bandwidth_cdf(out: &OutDir, name: &str, report: &BandwidthReport) {
    let rows: Vec<Vec<f64>> = (0..=100)
        .map(|p| {
            vec![
                f64::from(report.tx_percentile(f64::from(p))),
                f64::from(report.rx_percentile(f64::from(p))),
                f64::from(p) / 100.0,
            ]
        })
        .collect();
    out.write_csv(name, &["tx_bps", "rx_bps", "cdf"], &rows);
}

/// Runs the full stack over `trace`.
#[must_use]
pub fn run_full(cfg: &FullSimConfig, trace: &AvailabilityTrace) -> FullSimResult {
    let n = trace.num_endsystems();
    let schema = flow_schema();
    // NOW()-free, so pre-computation is injection-time independent.
    let bound: BoundQuery = Query::parse(QUERY_HTTP_BYTES)
        .expect("parses")
        .bind(&schema, 0)
        .expect("binds");
    // Data volume per endsystem follows the paper's full capture period
    // (3 weeks) regardless of the simulated window.
    let anemone = AnemoneConfig::default();

    // Stream-generate the data plane: summaries + per-query answers.
    let mut provider = Precomputed::new(n);
    let mut population_rows = 0u64;
    for node in 0..n {
        // Not gated on the availability trace (machines would generate
        // no data while off): the paper's data came from a router-side
        // capture and it "pessimistically assumes the total data size as
        // of the end of the trace" (§4.3).
        let table = anemone.generate_flow_table(cfg.seed, node, &[]);
        provider
            .record_fragment(node, &table, std::slice::from_ref(&bound))
            .expect("experiment queries execute against generated fragments");
        population_rows += seaweed_store::exec::count_matching(&bound, &table);
    }

    let (mut eng, mut sw) = build_world_with_ids(
        Box::new(CorpNetTopology::new(n, cfg.seed)),
        Overlay::random_ids(n, cfg.id_seed),
        cfg.seed,
        SimConfig {
            collect_cdf: cfg.collect_cdf,
            ..SimConfig::default()
        },
        cfg.overlay.clone(),
        cfg.seaweed.clone(),
        provider,
    );
    trace.replay_into(&mut eng);

    // Run, pausing at each injection instant.
    let mut injections = cfg.injections.clone();
    injections.sort_unstable();
    let mut handles: Vec<(seaweed_core::QueryHandle, Time)> = Vec::new();
    for &at in &injections {
        sw.run_until(&mut eng, at);
        let origin = eng
            .up_nodes()
            .next()
            .expect("an endsystem is available at injection");
        let ttl = Duration::from_days(30);
        let h = sw
            .inject_query(&mut eng, origin, QUERY_HTTP_BYTES, ttl, &schema)
            .expect("query injects");
        handles.push((h, at));
    }
    sw.run_until(&mut eng, trace.horizon());

    let queries = handles
        .iter()
        .map(|&(h, at)| {
            let q = sw.query(h);
            QueryOutcome {
                predictor_latency: q.predictor_at.map(|t| t.since(at)),
                rows: q.rows(),
                predicted_total: q
                    .predictor
                    .as_ref()
                    .map_or(0.0, seaweed_core::Predictor::total_rows),
                population_rows,
            }
        })
        .collect();

    let mean_online = {
        let s = trace.stats();
        s.mean_availability * n as f64
    };
    let seaweed_stats = sw.stats;
    let overlay_stats = sw.overlay.stats;
    let messages_sent = eng.messages_sent;
    let report = eng.finish();
    FullSimResult {
        report,
        seaweed_stats,
        overlay_stats,
        queries,
        mean_online,
        messages_sent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seaweed_availability::FarsiteConfig;

    #[test]
    fn small_full_stack_run_produces_sane_report() {
        let horizon = Duration::from_days(3);
        let (trace, _) = FarsiteConfig::small(80, 1).generate(9);
        // Trim trace to 3 days by regenerating with matching horizon.
        let mut cfg = FullSimConfig::new(9);
        cfg.injections = vec![Time::ZERO + Duration::from_days(1)];
        // Build a fresh 3-day trace instead of the 1-week default.
        let (trace3, _) = {
            let mut fc = FarsiteConfig::small(80, 1);
            fc.horizon = horizon;
            fc.generate(9)
        };
        drop(trace);
        let result = run_full(&cfg, &trace3);

        // Maintenance traffic dominates overlay traffic (paper Fig 9a).
        let maint = result
            .report
            .mean_tx_per_online_bps(TrafficClass::Maintenance);
        let overlay = result.report.mean_tx_per_online_bps(TrafficClass::Overlay);
        let query = result.report.mean_tx_per_online_bps(TrafficClass::Query);
        assert!(maint > 0.0 && overlay > 0.0 && query > 0.0);
        assert!(
            maint > overlay,
            "maintenance {maint} should exceed overlay {overlay}"
        );

        // The query reached most of the population.
        let q = &result.queries[0];
        assert!(q.predictor_latency.is_some());
        assert!(q.rows > 0);
        assert!(q.rows <= q.population_rows);
        assert!(
            q.rows as f64 > 0.8 * q.population_rows as f64,
            "rows {} of {}",
            q.rows,
            q.population_rows
        );
        assert!(result.messages_sent > 0);
    }
}
