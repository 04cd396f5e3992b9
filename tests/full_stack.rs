//! Cross-crate integration tests: Anemone workload + availability traces
//! + the full Seaweed protocol stack, checked against ground truth
//!   computed directly from the generated tables.

use seaweed::harness::{Availability, WorldConfig};
use seaweed_availability::FarsiteConfig;
use seaweed_core::provider::DataProvider;
use seaweed_sim::NodeIdx;
use seaweed_store::Query;
use seaweed_types::{Duration, Time};
use seaweed_workload::{flow_schema, paper_queries, AnemoneConfig};

/// All four paper queries on a fully available Anemone network must
/// produce exactly the sum of per-endsystem local answers.
#[test]
fn paper_queries_match_local_ground_truth() {
    let n = 60;
    let seed = 5;
    let anemone = AnemoneConfig {
        horizon: Duration::from_days(2),
        ..AnemoneConfig::default()
    };
    let cfg = WorldConfig::new(n, seed);
    let (mut eng, mut sw) = cfg.build_anemone(
        &anemone,
        Availability::AllUp {
            stagger: Duration::from_millis(200),
        },
    );
    sw.run_until(&mut eng, Time::ZERO + Duration::from_mins(10));
    assert_eq!(sw.overlay.num_joined(), n);

    let schema = flow_schema();
    for pq in paper_queries() {
        let h = sw
            .inject_query(
                &mut eng,
                NodeIdx(0),
                pq.sql,
                Duration::from_hours(2),
                &schema,
            )
            .unwrap_or_else(|e| panic!("{}: {e}", pq.sql));
        let hz = eng.now() + Duration::from_mins(3);
        sw.run_until(&mut eng, hz);

        // Ground truth: merge each endsystem's exact local aggregate.
        let bound = Query::parse(pq.sql).unwrap().bind(&schema, 0).unwrap();
        let mut truth = seaweed_store::Aggregate::empty(bound.agg);
        for node in 0..n {
            truth.merge(&sw.provider.execute(node, &bound).unwrap());
        }

        let q = sw.query(h);
        assert_eq!(q.rows(), truth.rows, "{}: row count", pq.sql);
        let got = q.latest.unwrap().finish();
        let want = truth.finish();
        match (got, want) {
            (Some(g), Some(w)) => {
                assert!(
                    (g - w).abs() <= w.abs() * 1e-9 + 1e-6,
                    "{}: {g} != {w}",
                    pq.sql
                )
            }
            (g, w) => assert_eq!(g, w, "{}", pq.sql),
        }
        // Predictor total should be close to the true relevant-row count
        // (histogram estimation error only).
        let p = q.predictor.as_ref().expect("predictor");
        let rel_err = (p.total_rows() - truth.rows as f64).abs() / (truth.rows as f64).max(1.0);
        assert!(
            rel_err < 0.05,
            "{}: predictor total off by {:.1}%",
            pq.sql,
            rel_err * 100.0
        );
    }
}

/// Under a Farsite-like availability trace with traffic gated on uptime,
/// prediction made at injection must match the completeness actually
/// observed hours later (the Figures 5–8 experiment, in miniature).
#[test]
fn completeness_prediction_tracks_reality_on_farsite_trace() {
    let n = 150;
    let seed = 11;
    let weeks = 2u64;
    let (trace, _) = FarsiteConfig::small(n, weeks).generate(seed);
    let anemone = AnemoneConfig {
        horizon: Duration::WEEK * weeks,
        ..AnemoneConfig::default()
    };
    let cfg = WorldConfig::new(n, seed);
    let (mut eng, mut sw) = cfg.build_anemone(&anemone, Availability::Trace(&trace));

    // Warm up one week (availability model learning), inject Tue 02:00 of
    // week 2 — deep night, when diurnal machines are off.
    let inject_at = Time::ZERO + Duration::from_days(8) + Duration::from_hours(2);
    sw.run_until(&mut eng, inject_at);
    let origin = eng.up_nodes().next().expect("someone is up");
    let schema = flow_schema();
    let h = sw
        .inject_query(
            &mut eng,
            origin,
            "SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80",
            Duration::from_days(2),
            &schema,
        )
        .unwrap();
    let hz = eng.now() + Duration::from_mins(2);
    sw.run_until(&mut eng, hz);

    let (total, pred_now, pred_12h) = {
        let q = sw.query(h);
        let p = q.predictor.as_ref().expect("predictor");
        (
            p.total_rows(),
            p.completeness_at(Duration::ZERO),
            p.completeness_at(Duration::from_hours(12)),
        )
    };
    assert!(total > 0.0);
    // Night time: a noticeable fraction of machines are off...
    assert!(pred_now < 0.98, "predicted immediate {pred_now}");
    // ...but the morning brings most of them back.
    assert!(
        pred_12h > pred_now + 0.01,
        "prediction should grow by morning"
    );

    // Compare prediction with actuality at several horizons.
    for hours in [1u64, 6, 12, 24] {
        sw.run_until(&mut eng, inject_at + Duration::from_hours(hours));
        let q = sw.query(h);
        let actual = q.rows() as f64 / total;
        let predicted = q
            .predictor
            .as_ref()
            .expect("predictor")
            .completeness_at(Duration::from_hours(hours));
        assert!(
            (actual - predicted).abs() < 0.15,
            "at +{hours}h: actual {actual:.3} vs predicted {predicted:.3}"
        );
    }
}

/// The simulated Seaweed maintenance bandwidth should agree with Eq. 2 of
/// the analytic model when fed the measured parameters.
#[test]
fn analytic_model_matches_simulation_order_of_magnitude() {
    use seaweed_analytic::{maintenance_bps, Architecture, ModelParams};
    use seaweed_sim::TrafficClass;

    let n = 120;
    let seed = 17;
    let weeks = 1u64;
    let (trace, _) = FarsiteConfig::small(n, weeks).generate(seed);
    let stats = trace.stats();
    let anemone = AnemoneConfig {
        horizon: Duration::WEEK * weeks,
        ..AnemoneConfig::default()
    };
    let cfg = WorldConfig::new(n, seed);
    let (mut eng, mut sw) = cfg.build_anemone(&anemone, Availability::Trace(&trace));
    sw.run_until(&mut eng, trace.horizon());

    // Mean summary size h over endsystems.
    let h_mean: f64 = (0..n)
        .map(|i| f64::from(sw.provider.summary_wire_size(i)))
        .sum::<f64>()
        / n as f64;
    let k = sw.cfg.k_metadata as f64;
    let push_rate = 1.0 / seaweed_core::PUSH_PERIOD.as_secs_f64();

    let report = eng.finish();
    let measured_total_bps = report.mean_tx_per_online_bps(TrafficClass::Maintenance)
        * stats.mean_availability
        * n as f64;

    let params = ModelParams {
        n: n as f64,
        f_on: stats.mean_availability,
        c: stats.churn_rate(n),
        k,
        h: h_mean,
        a: 48.0,
        p: push_rate,
        ..ModelParams::default()
    };
    let predicted = maintenance_bps(Architecture::Seaweed, &params);
    let ratio = measured_total_bps / predicted;
    assert!(
        (0.3..3.0).contains(&ratio),
        "measured {measured_total_bps:.0} B/s vs Eq.2 {predicted:.0} B/s (ratio {ratio:.2})"
    );
}

/// Row-count estimation from replicated summaries is accurate for the
/// paper's query shapes on real workload data (§4.3.2 claims <0.5% on
/// total row count).
#[test]
fn summary_estimates_are_accurate_on_anemone_data() {
    let n = 40;
    let anemone = AnemoneConfig {
        horizon: Duration::from_days(2),
        ..AnemoneConfig::default()
    };
    let schema = flow_schema();
    let tables: Vec<_> = (0..n)
        .map(|i| anemone.generate_flow_table(3, i, &[]))
        .collect();
    let provider = seaweed_core::LiveTables::new(tables);

    for pq in paper_queries() {
        let bound = Query::parse(pq.sql).unwrap().bind(&schema, 0).unwrap();
        let mut est_total = 0.0;
        let mut exact_total = 0u64;
        for node in 0..n {
            est_total += provider.estimate_rows(node, &bound);
            exact_total += provider.exact_rows(node, &bound);
        }
        let rel = (est_total - exact_total as f64).abs() / (exact_total as f64).max(1.0);
        assert!(
            rel < 0.02,
            "{}: estimate {est_total:.0} vs exact {exact_total} ({:.2}% off)",
            pq.sql,
            rel * 100.0
        );
    }
}
