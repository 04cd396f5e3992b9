//! Criterion micro-benchmarks for the hot paths of every layer:
//! hashing, id arithmetic, the vertex parent function, histogram
//! construction and estimation, aggregate/predictor merging, SQL parsing,
//! store scans, overlay routing and maintenance, and raw engine
//! throughput.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use seaweed_availability::ReturnPrediction;
use seaweed_core::predictor::Predictor;
use seaweed_core::vertex::chain_to_root;
use seaweed_core::SeaweedMsg;
use seaweed_overlay::{NodeState, Overlay, OverlayConfig, OverlayMsg, RingIndex, HALF_CAP};
use seaweed_sim::{
    CorpNetTopology, Engine, Event, NodeIdx, SimConfig, TimerHandle, Topology, TrafficClass,
    UniformTopology,
};
use seaweed_store::exec::{count_matching, execute, execute_batch};
use seaweed_store::histogram::NumericHistogram;
use seaweed_store::{
    AggFunc, Aggregate, BoundQuery, CmpOp, ColumnDef, DataType, Query, Schema, Table, Value,
};
use seaweed_types::{sha1, Duration, Id, Time};
use seaweed_workload::{paper_queries, AnemoneConfig};

fn bench_sha1(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha1");
    for size in [64usize, 1024, 65_536] {
        let data = vec![0xabu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("digest_{size}B"), |b| {
            b.iter(|| sha1::sha1(black_box(&data)));
        });
    }
    g.finish();
}

fn bench_id_ops(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let ids: Vec<Id> = (0..1024).map(|_| Id::random(&mut rng)).collect();
    c.bench_function("id/prefix_len_b4", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % 1023;
            black_box(ids[i].prefix_len(ids[i + 1], 4))
        });
    });
    c.bench_function("id/ring_dist", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % 1023;
            black_box(ids[i].ring_dist(ids[i + 1]))
        });
    });
}

fn bench_vertex_chain(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let query = Id::random(&mut rng);
    let starts: Vec<Id> = (0..256).map(|_| Id::random(&mut rng)).collect();
    c.bench_function("vertex/chain_to_root_b4", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % starts.len();
            black_box(chain_to_root(query, starts[i], 4))
        });
    });
}

fn bench_histograms(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let values: Vec<f64> = (0..100_000)
        .map(|_| (rng.gen::<f64>() * 1e6).floor())
        .collect();
    c.bench_function("histogram/build_100k_64buckets", |b| {
        b.iter(|| NumericHistogram::build(black_box(&values), 64));
    });
    let hist = NumericHistogram::build(&values, 64);
    c.bench_function("histogram/estimate_range", |b| {
        b.iter(|| black_box(hist.estimate(CmpOp::Lt, 500_000.0)));
    });
}

fn bench_merges(c: &mut Criterion) {
    let mut agg_a = Aggregate::empty(AggFunc::Avg);
    let mut agg_b = Aggregate::empty(AggFunc::Avg);
    for i in 0..100 {
        agg_a.fold(f64::from(i));
        agg_b.fold(f64::from(i) * 2.0);
    }
    c.bench_function("aggregate/merge", |b| {
        b.iter(|| {
            let mut m = black_box(agg_a);
            m.merge(black_box(&agg_b));
            black_box(m)
        });
    });

    let mut pred_a = Predictor::new();
    let mut pred_b = Predictor::new();
    for i in 1..50u64 {
        pred_a.add_available(i as f64);
        pred_b.add_unavailable(
            i as f64,
            &ReturnPrediction::point(Duration::from_mins(i * 11)),
        );
    }
    c.bench_function("predictor/merge", |b| {
        b.iter(|| {
            let mut m = black_box(pred_a.clone());
            m.merge(black_box(&pred_b));
            black_box(m)
        });
    });
    c.bench_function("predictor/completeness_at", |b| {
        b.iter(|| black_box(pred_b.completeness_at(Duration::from_hours(3))));
    });
}

fn bench_sql(c: &mut Criterion) {
    const SQL: &str =
        "SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80 AND ts <= NOW() AND ts >= NOW() - 86400";
    c.bench_function("sql/parse_paper_query", |b| {
        b.iter(|| Query::parse(black_box(SQL)).expect("parses"));
    });
}

/// The scan kernel under the data plane's pre-computation (`Precomputed`
/// records `execute` and `count_matching` of every query per endsystem)
/// and under a storm's shared scans (`LiveTables::execute_many`).
fn bench_store_scan(c: &mut Criterion) {
    let flows = AnemoneConfig {
        horizon: Duration::from_hours(24),
        ..AnemoneConfig::default()
    }
    .generate_flow_table(42, 0, &[]);
    let mut g = c.benchmark_group("store_scan");
    g.throughput(Throughput::Elements(flows.num_rows() as u64));
    for pq in paper_queries() {
        let q = Query::parse(pq.sql)
            .and_then(|q| q.bind(flows.schema(), 0))
            .expect("the paper's queries bind to the Flow schema");
        g.bench_function(format!("execute/fig{}", pq.figure), |b| {
            b.iter(|| execute(black_box(&q), black_box(&flows)));
        });
        g.bench_function(format!("count_matching/fig{}", pq.figure), |b| {
            b.iter(|| count_matching(black_box(&q), black_box(&flows)));
        });
    }

    // `perf`'s query_storm shape: 256-row fragments, `a` uniform below
    // 256, one `a < threshold` per query.
    let mut rng = StdRng::seed_from_u64(4);
    let mut storm = Table::new(Schema::new(
        "T",
        vec![
            ColumnDef::new("a", DataType::Int, true),
            ColumnDef::new("v", DataType::Int, true),
        ],
    ));
    for _ in 0..256 {
        storm
            .insert(vec![
                Value::Int(rng.gen_range(0..256)),
                Value::Int(rng.gen_range(0..10_000)),
            ])
            .expect("row matches schema");
    }
    let batch: Vec<BoundQuery> = (0..8)
        .map(|i| {
            let sql = format!("SELECT SUM(v) FROM T WHERE a < {}", 1 + (i * 7 + 13) % 255);
            Query::parse(&sql)
                .and_then(|q| q.bind(storm.schema(), 0))
                .expect("storm queries bind")
        })
        .collect();
    let refs: Vec<&BoundQuery> = batch.iter().collect();
    g.throughput(Throughput::Elements(8 * 256));
    g.bench_function("execute_batch/storm_8x256", |b| {
        b.iter(|| execute_batch(black_box(&refs), black_box(&storm)));
    });
    g.finish();
}

/// An `n`-node overlay on `topology`, every node joined one after the
/// other and the event loop run to `settle` so the ring has converged.
fn joined_overlay(
    topology: Box<dyn Topology>,
    n: usize,
    settle: Time,
) -> (Engine<OverlayMsg<u64>>, Overlay) {
    let mut eng: Engine<OverlayMsg<u64>> = Engine::new(topology, SimConfig::default());
    let mut ov = Overlay::new(Overlay::random_ids(n, 4), OverlayConfig::default());
    for i in 0..n {
        eng.schedule_up(Time::from_micros(1 + i as u64 * 100_000), NodeIdx(i as u32));
    }
    while let Some((_, ev)) = eng.next_event_before(settle) {
        overlay_dispatch(&mut eng, &mut ov, ev);
    }
    (eng, ov)
}

/// Hands one engine event to the overlay, dropping what it surfaces.
fn overlay_dispatch(
    eng: &mut Engine<OverlayMsg<u64>>,
    ov: &mut Overlay,
    ev: Event<OverlayMsg<u64>>,
) {
    match ev {
        Event::Message { from, to, payload } => {
            let _ = ov.on_message(eng, from, to, payload.into_owned());
        }
        Event::Timer { node, tag } => {
            let _ = ov.on_timer(eng, node, tag);
        }
        Event::NodeUp { node } => {
            let _ = ov.node_up(eng, node);
        }
        Event::NodeDown { node } => ov.node_down(eng, node),
        // No fault plan configured: crash/partition events can't occur.
        Event::NodeCrash { .. } | Event::PartitionStart { .. } | Event::PartitionEnd { .. } => {}
    }
}

/// Builds a joined 500-node overlay once, then measures routing one
/// message end-to-end (all hops, event loop included).
fn bench_routing(c: &mut Criterion) {
    let n = 500usize;
    let mut horizon = Time::ZERO + Duration::from_hours(1);
    let (mut eng, mut ov) = joined_overlay(
        Box::new(UniformTopology::new(n, Duration::from_millis(1))),
        n,
        horizon,
    );
    let mut rng = StdRng::seed_from_u64(5);
    c.bench_function("overlay/route_500_nodes", |b| {
        b.iter(|| {
            let key = Id::random(&mut rng);
            let from = NodeIdx(rng.gen_range(0..n as u32));
            let mut delivered = ov.route(&mut eng, from, key, 1, 64);
            horizon += Duration::from_mins(10);
            while delivered.is_empty() {
                match eng.next_event_before(horizon) {
                    Some((_, Event::Message { from, to, payload })) => {
                        delivered = ov.on_message(&mut eng, from, to, payload.into_owned());
                    }
                    Some(_) => {}
                    None => break,
                }
            }
            black_box(delivered.len())
        });
    });
}

/// The maintenance plane by itself, on a 2,000-node ring on the CorpNet
/// topology, through the real `Overlay` handlers. A converged ring's
/// anti-entropy is a standing rate, so there are two things to time:
///
/// - `restart_2000`: one endsystem leaves, its watchers detect and repair,
///   it rejoins, and every pair a stamp bump un-synced exchanges a real
///   `LeafsetPull`/`LeafsetPush` again until the ring has nothing left to
///   schedule — all the events one churn event costs. Throughput is
///   restarts per second; the event count of the first one is printed.
/// - `quiescent_hour_2000`: one simulated hour of the converged ring,
///   which must process no event at all; what remains is taking the
///   elided turns retroactively (`settle_elided_pulls`, as a wake-up
///   would). Throughput is endsystem-hours per second.
fn bench_overlay_maintenance(c: &mut Criterion) {
    const NODES: usize = 2_000;
    let mut horizon = Time::ZERO + Duration::from_mins(30);
    let (mut eng, mut ov) =
        joined_overlay(Box::new(CorpNetTopology::new(NODES, 4)), NODES, horizon);
    assert_eq!(ov.num_joined(), NODES);
    assert_eq!(eng.next_pending_at(), None, "converged: nothing scheduled");
    let mut g = c.benchmark_group("overlay_maintenance");

    g.throughput(Throughput::Elements(1));
    let mut restarts = 0u32;
    g.bench_function("restart_2000", |b| {
        b.iter(|| {
            let victim = NodeIdx(restarts * 7 % NODES as u32);
            eng.schedule_down(horizon + Duration::from_secs(1), victim);
            eng.schedule_up(horizon + Duration::from_mins(2), victim);
            horizon += Duration::from_mins(30);
            let mut events = 0u64;
            while let Some((_, ev)) = eng.next_event_before(horizon) {
                overlay_dispatch(&mut eng, &mut ov, ev);
                events += 1;
            }
            assert_eq!(
                eng.next_pending_at(),
                None,
                "re-converged within the window"
            );
            if restarts == 0 {
                println!("overlay_maintenance/restart_2000: {events} events per restart");
            }
            restarts += 1;
            black_box(events)
        });
    });

    g.throughput(Throughput::Elements(NODES as u64));
    g.bench_function("quiescent_hour_2000", |b| {
        b.iter(|| {
            horizon += Duration::from_hours(1);
            assert!(
                eng.next_event_before(horizon).is_none(),
                "an event in a quiet hour"
            );
            ov.settle_elided_pulls(horizon);
            black_box(ov.stats.leafset_pulls_elided)
        });
    });
    g.finish();
}

/// The two questions the metadata and vertex repairs ask the ring index
/// on every membership change, and the one every push timer asks the
/// owner's leafset, at `gnutella_churn`'s shape: a universe of 3,000 ids
/// with about a third joined, k = 8.
///
/// - `nearest_take_k`: the k joined nodes ring-closest to an id, nearest
///   first (a repair `.find()`s its replacement among these).
/// - `membership_hit` / `membership_miss`: is a joined node among the k
///   closest to an id — its own id, and the one opposite it? Each
///   iteration builds the node's served arc and tests one id; a
///   `NeighborJoined` builds it once and tests every held owner.
/// - `leafset_take_k`: a joined node's replica set as its own converged
///   leafset (l = 16) shows it — [`NodeState::nearest_members`], what
///   `Overlay::replica_set` collects once per push timer.
fn bench_replica_set_questions(c: &mut Criterion) {
    const UNIVERSE: usize = 3_000;
    const K: usize = 8;
    let mut rng = StdRng::seed_from_u64(21);
    let ids = Overlay::random_ids(UNIVERSE, 21);
    let mut index = RingIndex::new(&ids);
    let joined: Vec<NodeIdx> = (0..UNIVERSE as u32)
        .map(NodeIdx)
        .filter(|_| rng.gen_range(0..3) == 0)
        .collect();
    for &n in &joined {
        index.insert(n);
    }
    let mut g = c.benchmark_group("replica_set_questions");
    let mut i = 0;
    g.bench_function("nearest_take_k", |b| {
        b.iter(|| {
            i += 1;
            black_box(index.nearest_live(ids[i % UNIVERSE]).take(K).last())
        });
    });
    for (case, offset) in [("membership_hit", 0), ("membership_miss", 1 << 127)] {
        g.bench_function(case, |b| {
            b.iter(|| {
                i += 1;
                let x = joined[i % joined.len()];
                let id = ids[x.idx()].wrapping_add(offset);
                let among = index.served_arc(x, K).is_some_and(|arc| arc.contains(id));
                assert_eq!(among, offset == 0);
                among
            });
        });
    }
    // Converged leafsets: the eight joined nodes on either side, in ring
    // order.
    let mut ring = joined.clone();
    ring.sort_by_key(|n| ids[n.idx()]);
    let states: Vec<NodeState> = (0..ring.len())
        .map(|at| {
            let mut st = NodeState::new(ids[ring[at].idx()], 32, 16);
            for d in 1..=HALF_CAP {
                st.cw.push(ring[(at + d) % ring.len()]);
                st.ccw.push(ring[(at + ring.len() - d) % ring.len()]);
            }
            st
        })
        .collect();
    g.bench_function("leafset_take_k", |b| {
        b.iter(|| {
            i += 1;
            black_box(
                states[i % states.len()]
                    .nearest_members(&ids)
                    .take(K)
                    .last(),
            )
        });
    });
    g.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("timer_churn_10k", |b| {
        b.iter(|| {
            let mut eng: Engine<()> = Engine::new(
                Box::new(UniformTopology::new(4, Duration::MILLISECOND)),
                SimConfig::default(),
            );
            eng.schedule_up(Time::ZERO, NodeIdx(0));
            let _ = eng.next_event_before(Time(10));
            for i in 0..10_000u64 {
                eng.set_timer(NodeIdx(0), Duration::from_micros(i * 7 + 1), i);
            }
            let mut n = 0u64;
            while eng
                .next_event_before(Time::ZERO + Duration::from_secs(10))
                .is_some()
            {
                n += 1;
            }
            black_box(n)
        });
    });
    g.finish();
}

/// Timer-heavy event-queue throughput on the protocol's dominant event
/// pattern — short-lived heartbeat timers, half of them cancelled before
/// firing, re-armed from inside the event loop. (The case names keep the
/// `wheel` they had beside the deleted binary-heap cases, so recorded
/// numbers stay comparable.)
fn bench_des_event_throughput(c: &mut Criterion) {
    const TIMERS: u64 = 100_000;
    const WIDE_EVENTS: u64 = 200_000;

    fn run() -> u64 {
        let mut eng: Engine<u64> = Engine::new(
            Box::new(UniformTopology::new(8, Duration::MILLISECOND)),
            SimConfig::default(),
        );
        for i in 0..8u64 {
            eng.schedule_up(Time(i), NodeIdx(i as u32));
        }
        while eng.next_event_before(Time(100)).is_some() {}
        let mut handles = Vec::with_capacity(TIMERS as usize);
        for i in 0..TIMERS {
            let node = NodeIdx((i % 8) as u32);
            handles.push(eng.set_timer(node, Duration::from_micros(i % 50_000 + 10), i));
        }
        // Half the timers are cancelled before they fire, like heartbeats
        // rescinded by a node restart.
        for h in handles.iter().step_by(2) {
            eng.cancel_timer(*h);
        }
        let mut fired = 0u64;
        let mut rearmed = 0u64;
        while let Some((_, ev)) = eng.next_event_before(Time::ZERO + Duration::from_secs(60)) {
            fired += 1;
            if let Event::Timer { node, tag } = ev {
                if rearmed < TIMERS {
                    rearmed += 1;
                    let h = eng.set_timer(node, Duration::from_micros(tag % 3_000 + 5), tag);
                    if tag % 3 == 0 {
                        eng.cancel_timer(h);
                    }
                }
            }
        }
        fired
    }

    /// The full stack's queue shape, which the 8-node `Engine<u64>` case
    /// above cannot show: a payload as wide as the protocol's, 2,000
    /// endsystems, 60 s heartbeats that cascade down four wheel levels,
    /// beside each a 90 s timer that is cancelled and replaced before it
    /// fires, and two messages a few ms out per heartbeat. The cost that scales with entry size —
    /// how often and how far a queued event is moved — only shows here.
    fn run_wide() -> u64 {
        const NODES: u32 = 2_000;
        const WIDE_WORDS: usize = std::mem::size_of::<OverlayMsg<SeaweedMsg>>() / 8;
        type Wide = [u64; WIDE_WORDS];
        let mut eng: Engine<Wide> = Engine::new(
            Box::new(UniformTopology::new(
                NODES as usize,
                Duration::from_millis(2),
            )),
            SimConfig::default(),
        );
        for i in 0..NODES {
            eng.schedule_up(Time(u64::from(i) * 29_989), NodeIdx(i));
        }
        let period = Duration::from_secs(60);
        let deadline = Duration::from_secs(90);
        let mut spare: Vec<Option<TimerHandle>> = vec![None; NODES as usize];
        let mut handled = 0u64;
        while handled < WIDE_EVENTS {
            let Some((_, ev)) = eng.next_event_before(Time::ZERO + Duration::from_hours(24)) else {
                break;
            };
            handled += 1;
            match ev {
                Event::NodeUp { node } => {
                    eng.set_timer(node, period, 0);
                    spare[node.idx()] = Some(eng.set_timer(node, deadline, 1));
                }
                Event::Timer { node, tag: 0 } => {
                    eng.set_timer(node, period, 0);
                    // The heartbeat also rescinds the node's deadline,
                    // parked three levels up, and arms its replacement.
                    let fresh = eng.set_timer(node, deadline, 1);
                    if let Some(old) = spare[node.idx()].replace(fresh) {
                        eng.cancel_timer(old);
                    }
                    let to = NodeIdx((node.0 * 7 + 1) % NODES);
                    let mut msg: Wide = [0; WIDE_WORDS];
                    msg[0] = 1;
                    eng.send(node, to, msg, 256, TrafficClass::Maintenance);
                }
                Event::Message { to, payload, .. } => {
                    let mut msg = payload.into_owned();
                    if msg[0] > 0 {
                        msg[0] -= 1;
                        let next = NodeIdx((to.0 * 13 + 5) % NODES);
                        eng.send(to, next, msg, 256, TrafficClass::Maintenance);
                    }
                }
                _ => {}
            }
        }
        handled
    }

    let mut g = c.benchmark_group("des_event_throughput");
    g.throughput(Throughput::Elements(TIMERS));
    g.bench_function("wheel", |b| b.iter(|| black_box(run())));
    g.throughput(Throughput::Elements(WIDE_EVENTS));
    g.bench_function("wide/wheel", |b| b.iter(|| black_box(run_wide())));
    g.finish();
}

criterion_group!(
    benches,
    bench_sha1,
    bench_id_ops,
    bench_vertex_chain,
    bench_histograms,
    bench_merges,
    bench_sql,
    bench_store_scan,
    bench_routing,
    bench_overlay_maintenance,
    bench_replica_set_questions,
    bench_engine,
    bench_des_event_throughput,
);
criterion_main!(benches);
