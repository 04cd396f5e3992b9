//! `federation_par`: `core::federation` over `sim::exec::run_partitioned`
//! — one independent Seaweed overlay per CorpNet partition, every shard
//! injecting the same SUM at the same simulated instant, row counts
//! merged at the root partition. The only workload in which the
//! partitioned executor runs at all.

use std::sync::Arc;
use std::sync::Mutex;
use std::time::Instant;

use seaweed_core::{
    ChaosOracle, FedCtl, FedSchedule, FedShard, LiveTables, Seaweed, SeaweedConfig, SeaweedEngine,
    SeaweedMsg, SeaweedStats,
};
use seaweed_overlay::{Overlay, OverlayConfig, OverlayMsg, OverlayStats};
use seaweed_sim::exec::{partition_seed, run_partitioned, ExecConfig, ExecKind};
use seaweed_sim::{
    payload_cross_partition_clones, CorpNetTopology, Engine, NodeIdx, PartitionApp, PartitionMap,
    SimConfig, SubTopology, Topology,
};
use seaweed_store::exec::execute;
use seaweed_store::{Aggregate, ColumnDef, DataType, Schema, Table, Value};
use seaweed_types::{Duration, Time};

use super::{mix, rss_mb, Rep, Size};
use crate::alloc;
use crate::classify::Class;
use crate::ledger::{Ledger, Row};
use crate::outcome::{query_outcome, ExecFigures, Outcome, QueryOutcome, Stage, Truth};
use crate::timed::TimedShard;

#[derive(Debug, Clone, Copy)]
struct Scenario {
    endsystems: usize,
    partitions: usize,
}

fn scenario(size: Size) -> Scenario {
    match size {
        Size::Full => Scenario {
            endsystems: 16_000,
            partitions: 2,
        },
        Size::Smoke => Scenario {
            endsystems: 400,
            partitions: 2,
        },
    }
}

const ROWS_PER_ENDSYSTEM: u64 = 8;
/// Two predicates: each histogram is exact on 8 rows, but combining
/// them assumes independence, so the predictor only estimates.
const SQL: &str = "SELECT SUM(v) FROM T WHERE v < 700 AND u < 500";
const INJECT_AT: Time = Time(900 * Duration::SECOND.0);
const REPORT_AT: Time = Time(1_750 * Duration::SECOND.0);
const HORIZON: Time = Time(1_800 * Duration::SECOND.0);

fn schema() -> Schema {
    Schema::new(
        "T",
        vec![
            ColumnDef::new("v", DataType::Int, true),
            ColumnDef::new("u", DataType::Int, true),
        ],
    )
}

/// Endsystem `g`'s fragment (global index, so a shard's data does not
/// depend on how the population was cut).
fn fragment(seed: u64, g: u32) -> Table {
    let mut t = Table::new(schema());
    for r in 0..ROWS_PER_ENDSYSTEM {
        let draw = mix(mix(seed ^ (u64::from(g) << 8)) ^ r);
        let (v, u) = ((draw % 1_000) as i64, ((draw >> 32) % 1_000) as i64);
        t.insert(vec![Value::Int(v), Value::Int(u)])
            .expect("row matches schema");
    }
    t
}

/// Worker threads for the parallel executor: both cores of the reference
/// host, never more than the machine has.
#[must_use]
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// What a shard hands back when the executor finishes it.
struct ShardOut {
    events: u64,
    messages: u64,
    tx_bytes: [u64; 3],
    online_us: u64,
    drops: u64,
    overlay: OverlayStats,
    core: SeaweedStats,
    query: QueryOutcome,
    violations: Vec<String>,
    merged_rows: u64,
    reports_received: u32,
    clones: u64,
    ledger: Option<Ledger>,
    busy_ns: u64,
}

/// One executor run (serial or parallel) of the scenario.
struct ExecRun {
    shards: Vec<ShardOut>,
    /// When every shard was built and the first window could start.
    started: Instant,
    ended: Instant,
    peak_heap_bytes: i64,
}

fn execute_run<A: ShardApp>(
    rep: &Rep,
    seed: u64,
    sc: Scenario,
    global: &Arc<CorpNetTopology>,
    pmap: &PartitionMap,
    kind: ExecKind,
) -> ExecRun {
    let cfg = ExecConfig {
        kind,
        partitions: sc.partitions,
        workers: workers(),
    };
    let schedule = FedSchedule {
        inject_at: INJECT_AT,
        report_at: REPORT_AT,
    };
    let step = (60_000_000 / sc.endsystems as u64).max(1);
    let epoch = rep.epoch;
    // Shards are built on the worker threads that own them; the run
    // starts when the slowest has finished building.
    let built_at: Mutex<Option<Instant>> = Mutex::new(None);
    let build = |p: usize| {
        let members = pmap.members[p].clone();
        let shard_seed = partition_seed(seed, p);
        let tables: Vec<Table> = members.iter().map(|&g| fragment(seed, g)).collect();
        let topo: Arc<dyn Topology + Send + Sync> = global.clone();
        let mut eng: SeaweedEngine = Engine::new(
            Box::new(SubTopology::new(topo, members.clone())),
            SimConfig {
                seed: shard_seed,
                ..SimConfig::default()
            },
        );
        let overlay = Overlay::new(
            Overlay::random_ids(members.len(), shard_seed),
            OverlayConfig {
                seed: shard_seed,
                ..OverlayConfig::default()
            },
        );
        let sw = Seaweed::new(
            overlay,
            LiveTables::new(tables),
            SeaweedConfig {
                seed: shard_seed,
                ..SeaweedConfig::default()
            },
        );
        for (l, &g) in members.iter().enumerate() {
            eng.schedule_up(Time(1 + u64::from(g) * step), NodeIdx(l as u32));
        }
        let shard = FedShard::new(
            sw,
            p as u32,
            sc.partitions as u32,
            pmap.lookahead,
            schedule,
            SQL,
            Duration::from_hours(1),
            schema(),
        );
        let now = Instant::now();
        let mut latest = built_at.lock().expect("no builder panicked");
        *latest = Some(latest.map_or(now, |t| t.max(now)));
        (eng, A::wrap(shard, epoch))
    };
    let finish = |p: usize, eng: SeaweedEngine, shard: A| {
        let (fed, ledger, busy_ns) = shard.into_parts();
        // Set-up only: nothing ran, there is nothing to report.
        let h = fed.handle?;
        let lt = &fed.sw.provider;
        let (_, bound) = lt.bind(SQL, 0).expect("the shard query binds");
        let mut population = Aggregate::empty(bound.agg);
        for node in 0..pmap.members[p].len() {
            population.merge(&execute(&bound, lt.table(node)).expect("the shard query executes"));
        }
        let truth = Truth {
            population,
            required_rows: population.rows,
        };
        let query = query_outcome(
            fed.sw.query(h),
            fed.sw.timeline(h),
            &truth,
            INJECT_AT,
            HORIZON,
        );
        let violations = ChaosOracle::new(population.rows).check(&fed.sw, &eng);
        let messages = eng.messages_sent;
        let (overlay, core) = (fed.sw.overlay.stats, fed.sw.stats);
        let report = eng.finish();
        Some(ShardOut {
            events: fed.events,
            messages,
            tx_bytes: report.total_tx,
            online_us: report.tx_hours.iter().map(|h| h.online_node_us).sum(),
            drops: report.drops.total(),
            overlay,
            core,
            query,
            violations,
            merged_rows: fed.merged_rows,
            reports_received: fed.reports_received,
            clones: payload_cross_partition_clones(),
            ledger,
            busy_ns,
        })
    };
    alloc::reset_peak();
    let horizon = if rep.setup_only { Time::ZERO } else { HORIZON };
    let shards = run_partitioned(&cfg, pmap.lookahead, horizon, build, finish);
    let ended = Instant::now();
    ExecRun {
        shards: shards.into_iter().flatten().collect(),
        started: built_at
            .into_inner()
            .expect("no builder panicked")
            .expect("at least one shard was built"),
        ended,
        peak_heap_bytes: alloc::peak_bytes(),
    }
}

/// A shard as the executor drives it: the bare [`FedShard`] in the
/// untraced run, the classifying, timing [`TimedShard`] in the traced.
trait ShardApp: PartitionApp<Msg, Ctl = FedCtl> {
    fn wrap(inner: FedShard, epoch: Instant) -> Self;
    /// The shard, its ledger and its host ns inside dispatch.
    fn into_parts(self) -> (FedShard, Option<Ledger>, u64);
}

impl ShardApp for FedShard {
    fn wrap(inner: FedShard, _epoch: Instant) -> Self {
        inner
    }

    fn into_parts(self) -> (FedShard, Option<Ledger>, u64) {
        (self, None, 0)
    }
}

impl ShardApp for TimedShard {
    fn wrap(inner: FedShard, epoch: Instant) -> Self {
        TimedShard::new(inner, epoch)
    }

    fn into_parts(mut self) -> (FedShard, Option<Ledger>, u64) {
        self.ledger.finish(Instant::now());
        (self.inner, Some(self.ledger), self.busy_ns)
    }
}

type Msg = OverlayMsg<SeaweedMsg>;

pub fn run(rep: &mut Rep, seed: u64, size: Size) -> Outcome {
    let sc = scenario(size);
    let (global, pmap) = rep.stage(Stage::Topology, || {
        let global = Arc::new(CorpNetTopology::new(sc.endsystems, seed));
        let pmap = global
            .partition_map(sc.partitions)
            .expect("CorpNet offers a site partition at this size");
        (global, pmap)
    });
    let rss_after_setup_mb = rss_mb("VmRSS:");

    rep.probe_point();
    let begun = Instant::now();
    let par = if rep.traced {
        execute_run::<TimedShard>(rep, seed, sc, &global, &pmap, ExecKind::Parallel)
    } else {
        execute_run::<FedShard>(rep, seed, sc, &global, &pmap, ExecKind::Parallel)
    };
    // Building the shards (tables, summaries, overlay, engine) is set-up
    // even though the executor does it on its own threads.
    rep.setup.stage_s[Stage::Overlay as usize] += par.started.duration_since(begun).as_secs_f64();
    let _ = rep.start_run_at(par.started, par.started);
    if rep.setup_only {
        return Outcome::blank(sc.endsystems, rep.setup, rss_after_setup_mb);
    }
    let run_s = rep.run_seconds(par.ended);
    // The executor is one call: the probe brackets it.
    rep.probe_point();
    let mut out = merge(rep, sc, &par, run_s, rss_after_setup_mb);

    // The traced run also executes the scenario serially: the parallel
    // executor is judged against the same loop on one thread, and must
    // reproduce it counter for counter.
    if rep.traced {
        let serial = execute_run::<FedShard>(rep, seed, sc, &global, &pmap, ExecKind::Serial);
        let serial_s = serial.ended.duration_since(serial.started).as_secs_f64();
        let reference = merge(rep, sc, &serial, serial_s, rss_after_setup_mb);
        if reference.fingerprint() != out.fingerprint() {
            out.violations
                .push("serial and parallel execution diverged".to_owned());
        }
        if let Some(exec) = out.exec.as_mut() {
            exec.serial_run_s = serial_s;
            exec.serial_peak_heap_bytes = serial.peak_heap_bytes;
        }
    }
    out
}

/// Sums the shards of one executor run into an outcome.
fn merge(rep: &Rep, sc: Scenario, run: &ExecRun, run_s: f64, rss_after_setup_mb: f64) -> Outcome {
    let shards = &run.shards;
    let sum = |f: fn(&ShardOut) -> u64| shards.iter().map(f).sum::<u64>();
    let mut violations: Vec<String> = shards.iter().flat_map(|s| s.violations.clone()).collect();
    if shards[0].reports_received as usize != sc.partitions - 1 {
        violations.push(format!(
            "root merged {} shard reports, expected {}",
            shards[0].reports_received,
            sc.partitions - 1
        ));
    }
    let federated_rows = shards[0].query.rows + shards[0].merged_rows;
    let shard_rows: u64 = shards.iter().map(|s| s.query.rows).sum();
    if federated_rows != shard_rows {
        violations.push(format!(
            "federated row count {federated_rows} differs from the shards' {shard_rows}"
        ));
    }
    let workers = workers();
    let busy_ns = sum(|s| s.busy_ns);
    let mut ledger = None;
    for s in shards {
        if let Some(l) = &s.ledger {
            ledger
                .get_or_insert_with(|| Ledger::new(rep.epoch))
                .merge(l);
        }
    }
    if let Some(l) = ledger.as_mut() {
        // Everything the worker threads did outside shard dispatch:
        // queue pops, window bookkeeping, inbox drains, barrier waits.
        let exec_ns = ((run_s * 1e9) as u64 * workers as u64).saturating_sub(busy_ns);
        l.charge_run(
            Class::SimExec,
            &Row {
                events: sum(|s| s.events),
                self_ns: exec_ns,
                allocs: 0,
                alloc_bytes: 0,
            },
        );
    }
    let tx_bytes = [0, 1, 2].map(|c| shards.iter().map(|s| s.tx_bytes[c]).sum::<u64>());
    let online_s = sum(|s| s.online_us) as f64 / 1e6;
    let fold_overlay = shards.iter().fold(OverlayStats::default(), |mut a, s| {
        a.joins += s.overlay.joins;
        a.join_retries += s.overlay.join_retries;
        a.leafset_repairs += s.overlay.leafset_repairs;
        a.partition_repairs += s.overlay.partition_repairs;
        a.leafset_refreshes += s.overlay.leafset_refreshes;
        a.probes += s.overlay.probes;
        a.routed_messages += s.overlay.routed_messages;
        a.delivered_messages += s.overlay.delivered_messages;
        a.total_hops += s.overlay.total_hops;
        a.max_hops = a.max_hops.max(s.overlay.max_hops);
        a
    });
    let mut out = Outcome::blank(sc.endsystems, rep.setup, rss_after_setup_mb);
    out.run_s = run_s;
    out.slice_s = rep.slice_s();
    out.events = sum(|s| s.events);
    out.messages = sum(|s| s.messages);
    out.drops = sum(|s| s.drops);
    out.tx_bytes = tx_bytes;
    out.tx_bytes_per_online_s = tx_bytes.iter().sum::<u64>() as f64 / online_s.max(1e-9);
    out.queries = shards.iter().map(|s| s.query.clone()).collect();
    out.overlay = fold_overlay;
    out.core = fold_core(shards);
    out.violations = violations;
    // Shards are torn down inside the executor; their heap grows to the
    // end of the run, so the peak stands in for "held at the end".
    out.heap_after_run = run.peak_heap_bytes;
    out.exec = Some(ExecFigures {
        workers,
        busy_ns,
        max_shard_busy_ns: shards.iter().map(|s| s.busy_ns).max().unwrap_or(0),
        shards: shards.len(),
        cross_partition_clones: sum(|s| s.clones),
        peak_heap_bytes: run.peak_heap_bytes,
        serial_run_s: 0.0,
        serial_peak_heap_bytes: 0,
    });
    out.ledger = ledger;
    out
}

/// The protocol counters the ledger reports, summed over shards.
fn fold_core(shards: &[ShardOut]) -> SeaweedStats {
    shards.iter().fold(SeaweedStats::default(), |mut a, s| {
        a.meta_pushes += s.core.meta_pushes;
        a.disseminate_msgs += s.core.disseminate_msgs;
        a.dissem_reissues += s.core.dissem_reissues;
        a.predictor_reports += s.core.predictor_reports;
        a.result_submissions += s.core.result_submissions;
        a.result_retries += s.core.result_retries;
        a.vertex_replications += s.core.vertex_replications;
        a.scan_quanta += s.core.scan_quanta;
        a.shared_scan_batches += s.core.shared_scan_batches;
        a.shared_scan_queries += s.core.shared_scan_queries;
        a.results_at_origin += s.core.results_at_origin;
        a
    })
}
