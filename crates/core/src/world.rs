//! The one way to stand up a world: topology → engine → Pastry overlay →
//! Seaweed, under one seed.
//!
//! Every experiment in the paper is this stack under a different trace
//! (§4.3), and every test, experiment and example in this repository
//! builds it here. Beside the constructor live the pieces nearly all
//! of them repeat: the staggered boot, the one-row-per-endsystem
//! fixture whose ground truth is known in closed form, and the chaos
//! scenario the goldens, the chaos tests and three experiments share.

use seaweed_overlay::{Overlay, OverlayConfig};
use seaweed_sim::{
    fnv1a, BandwidthReport, CorpNetTopology, Engine, EventLog, FaultPlan, NodeIdx, SimConfig,
    Topology, Tracer,
};
use seaweed_store::{ColumnDef, DataType, Schema, Table, Value};
use seaweed_types::{Duration, Id, Time};

use crate::app::{QueryHandle, Seaweed, SeaweedConfig, SeaweedEngine, SeaweedStats};
use crate::oracle::ChaosOracle;
use crate::provider::{DataProvider, LiveTables};

/// Builds the engine over `topology` and the protocol stack over
/// `provider`, one endsystem per topology endsystem, ids drawn from
/// `seed`. The three layer configs are taken as they are except for
/// their `seed` fields, which `seed` overrides — a run has one seed.
/// All endsystems start down: replay a trace or call [`boot_staggered`].
#[must_use]
pub fn build_world<P: DataProvider>(
    topology: Box<dyn Topology>,
    seed: u64,
    sim: SimConfig,
    overlay: OverlayConfig,
    seaweed: SeaweedConfig,
    provider: P,
) -> (SeaweedEngine, Seaweed<P>) {
    let ids = Overlay::random_ids(topology.num_endsystems(), seed);
    build_world_with_ids(topology, ids, seed, sim, overlay, seaweed, provider)
}

/// [`build_world`] over an explicit endsystemId assignment — for the
/// experiment that varies the ids while the run's seed stays fixed
/// (Figure 9(c)).
///
/// # Panics
/// Panics unless there is exactly one id per topology endsystem.
#[must_use]
pub fn build_world_with_ids<P: DataProvider>(
    topology: Box<dyn Topology>,
    ids: Vec<Id>,
    seed: u64,
    sim: SimConfig,
    overlay: OverlayConfig,
    seaweed: SeaweedConfig,
    provider: P,
) -> (SeaweedEngine, Seaweed<P>) {
    assert_eq!(ids.len(), topology.num_endsystems(), "one id per endsystem");
    let eng = Engine::new(topology, SimConfig { seed, ..sim });
    let overlay = Overlay::new(ids, OverlayConfig { seed, ..overlay });
    let sw = Seaweed::new(overlay, provider, SeaweedConfig { seed, ..seaweed });
    (eng, sw)
}

/// Schedules every endsystem up, endsystem `i` at `1 µs + i × step`.
pub fn boot_staggered(eng: &mut SeaweedEngine, step: Duration) {
    for i in 0..eng.num_nodes() {
        eng.schedule_up(Time(1 + i as u64 * step.as_micros()), NodeIdx(i as u32));
    }
}

/// The fixture with closed-form ground truth: table `T(flag, v)`, one
/// fragment per entry of `nodes`, each holding `rows` rows
/// `(flag = 1, v = node + r + 1)` for `r` in `0..rows`. With one row
/// per endsystem and `nodes = 0..n`, `COUNT(*) WHERE flag = 1` is `n`
/// and `SUM(v)` is `n(n+1)/2`. `nodes` are the numbers the values are
/// derived from — a shard of a partitioned run passes its members'
/// global indices.
#[must_use]
pub fn flag_fixture(nodes: impl IntoIterator<Item = u32>, rows: usize) -> (LiveTables, Schema) {
    let schema = Schema::new(
        "T",
        vec![
            ColumnDef::new("flag", DataType::Int, true),
            ColumnDef::new("v", DataType::Int, true),
        ],
    );
    let tables = nodes
        .into_iter()
        .map(|node| {
            let mut t = Table::new(schema.clone());
            for r in 0..rows {
                t.insert(vec![
                    Value::Int(1),
                    Value::Int(i64::from(node) + r as i64 + 1),
                ])
                .expect("row matches the schema");
            }
            t
        })
        .collect();
    (LiveTables::new(tables), schema)
}

/// When the chaos scenario injects its query; every fault window of
/// [`FaultPlan::chaos`] is anchored after it.
pub const CHAOS_T0: Time = Time(600_000_000);

/// Oracle checkpoints of the chaos scenario, in simulated seconds. They
/// straddle every fault window: mid-partition/outage, post-crash-rejoin,
/// post-heal, and converged.
pub const CHAOS_CHECKPOINTS: [u64; 5] = [650, 720, 800, 1000, 1500];

/// The query the chaos scenario asks of [`flag_fixture`].
pub const CHAOS_QUERY: &str = "SELECT SUM(v) FROM T WHERE flag = 1";

/// The chaos scenario's network: 1% uniform loss under the shared
/// [`FaultPlan::chaos`] plan.
#[must_use]
pub fn chaos_sim(topo: &CorpNetTopology) -> SimConfig {
    SimConfig {
        loss_rate: 0.01,
        faults: Some(FaultPlan::chaos(topo, &[])),
        ..SimConfig::default()
    }
}

/// The chaos scenario's world: `n` endsystems holding one matching row
/// each ([`flag_fixture`]) behind `routers` CorpNet routers with 1 ms
/// links, booted 300 ms apart. `sim` sees the topology the fault plan
/// must name — pass [`chaos_sim`], or build on it.
#[must_use]
pub fn chaos_world(
    n: usize,
    routers: usize,
    seed: u64,
    sim: impl FnOnce(&CorpNetTopology) -> SimConfig,
    seaweed: SeaweedConfig,
) -> (SeaweedEngine, Seaweed<LiveTables>, Schema) {
    let (tables, schema) = flag_fixture(0..n as u32, 1);
    let topo = CorpNetTopology::with_params(n, routers, Duration::MILLISECOND, seed);
    let sim = sim(&topo);
    let (mut eng, sw) = build_world(
        Box::new(topo),
        seed,
        sim,
        OverlayConfig::default(),
        seaweed,
        tables,
    );
    boot_staggered(&mut eng, Duration::from_millis(300));
    (eng, sw, schema)
}

/// Injects [`CHAOS_QUERY`] at endsystem 0, the scenario's origin, with
/// its four-hour lifetime.
pub fn inject_chaos_query(
    eng: &mut SeaweedEngine,
    sw: &mut Seaweed<LiveTables>,
    schema: &Schema,
) -> QueryHandle {
    sw.inject_query(
        eng,
        NodeIdx(0),
        CHAOS_QUERY,
        Duration::from_hours(4),
        schema,
    )
    .expect("the chaos query parses and binds")
}

/// What one run of the chaos scenario leaves behind.
#[derive(Debug)]
pub struct ChaosRun {
    /// The [`EventLog`] over every delivered event.
    pub log: EventLog,
    /// Rows at the origin at the last checkpoint.
    pub rows: u64,
    pub stats: SeaweedStats,
    pub report: BandwidthReport,
    /// Every [`ChaosOracle`] finding, over all checkpoints.
    pub violations: Vec<String>,
    /// Trace records captured; 0 with tracing off.
    pub trace_recorded: u64,
}

impl ChaosRun {
    /// `(log_hash, log_len, rows, report_hash)`: an FNV-1a hash over
    /// every delivered event (kind, time, endpoints, timer tag) in
    /// order, the event count, the rows at the origin, and a hash of
    /// the final [`BandwidthReport`] rendering.
    #[must_use]
    pub fn fingerprint(&self) -> (u64, u64, u64, u64) {
        let report = format!("{:?}", self.report);
        (
            self.log.hash(),
            self.log.events(),
            self.rows,
            fnv1a(report.as_bytes()),
        )
    }

    /// # Panics
    /// Panics, listing them, if the oracle found anything.
    pub fn assert_clean(&self) {
        assert!(
            self.violations.is_empty(),
            "chaos oracle violations:\n  {}",
            self.violations.join("\n  ")
        );
    }
}

/// Runs the chaos scenario over a [`chaos_world`]: the query injected
/// at [`CHAOS_T0`], the oracle consulted at each of
/// [`CHAOS_CHECKPOINTS`] and, for its retry-deadline invariant, after
/// every event delivered from the injection on.
///
/// # Panics
/// Panics unless every endsystem has joined by [`CHAOS_T0`] — the
/// faults are meant to hit a converged ring.
#[must_use]
pub fn run_chaos(world: (SeaweedEngine, Seaweed<LiveTables>, Schema)) -> ChaosRun {
    let (mut eng, mut sw, schema) = world;
    let n = eng.num_nodes();
    let mut log = EventLog::new();
    sw.run_until_logged(&mut eng, CHAOS_T0, &mut log);
    assert_eq!(sw.overlay.num_joined(), n, "all join before the faults");
    let h = inject_chaos_query(&mut eng, &mut sw, &schema);
    let oracle = ChaosOracle::new(n as u64);
    let mut violations = Vec::new();
    for t in CHAOS_CHECKPOINTS {
        while let Some((at, ev)) = eng.next_event_before(Time::from_secs(t)) {
            log.add(at, &ev);
            sw.dispatch(&mut eng, ev);
            violations.extend(oracle.check_retry_deadlines(&sw, &eng));
        }
        violations.extend(oracle.check(&sw, &eng));
    }
    let rows = sw.query(h).rows();
    let trace_recorded = eng.tracer().map_or(0, Tracer::recorded);
    ChaosRun {
        log,
        rows,
        stats: sw.stats,
        report: eng.finish(),
        violations,
        trace_recorded,
    }
}

#[cfg(test)]
mod tests {
    use seaweed_sim::UniformTopology;

    use super::*;

    const N: usize = 16;

    fn topology() -> Box<dyn Topology> {
        Box::new(UniformTopology::new(N, Duration::from_millis(5)))
    }

    /// Two simulated minutes of joins and metadata pushes under 5% loss
    /// (so every layer draws from its RNG); the layer configs arrive
    /// carrying `layer_seed`, which the run's seed must override.
    fn short_run(seed: u64, layer_seed: u64) -> (Vec<Id>, u64, u64) {
        let (mut eng, mut sw) = build_world(
            topology(),
            seed,
            SimConfig {
                seed: layer_seed,
                loss_rate: 0.05,
                ..SimConfig::default()
            },
            OverlayConfig {
                seed: layer_seed,
                ..OverlayConfig::default()
            },
            SeaweedConfig {
                seed: layer_seed,
                ..SeaweedConfig::default()
            },
            flag_fixture(0..N as u32, 1).0,
        );
        boot_staggered(&mut eng, Duration::from_millis(100));
        let mut log = EventLog::new();
        while let Some((t, ev)) = eng.next_event_before(Time::from_secs(120)) {
            log.add(t, &ev);
            sw.dispatch(&mut eng, ev);
        }
        (sw.overlay.ids().to_vec(), log.hash(), log.events())
    }

    #[test]
    fn one_seed_reaches_every_layer() {
        assert_eq!(short_run(7, 1), short_run(7, 2));
        let (a, b) = (short_run(7, 1), short_run(8, 1));
        assert_ne!(a.0, b.0, "ids must follow the seed");
        assert_ne!(a.1, b.1, "the schedule must follow the seed");
    }

    #[test]
    fn explicit_ids_are_honoured() {
        let ids = Overlay::random_ids(N, 99);
        assert_ne!(ids, Overlay::random_ids(N, 7));
        let (_, sw) = build_world_with_ids(
            topology(),
            ids.clone(),
            7,
            SimConfig::default(),
            OverlayConfig::default(),
            SeaweedConfig::default(),
            flag_fixture(0..N as u32, 1).0,
        );
        assert_eq!(sw.overlay.ids(), &ids[..]);
    }
}
