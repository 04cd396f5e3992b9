//! Byte-identity of partitioned parallel execution (DESIGN.md §3.6).
//!
//! The parallel executor's whole value rests on one claim: for the same
//! seed, [`ExecKind::Parallel`] produces *byte-identical* results to
//! [`ExecKind::Serial`] — per-shard event logs, bandwidth reports and
//! exported traces — under the full chaos plan (loss, partitions, link
//! degradation, crash-amnesia, correlated outages, duplication,
//! reordering), with cross-partition messages and control payloads landing exactly at the
//! lookahead bound. The proptest here pins that claim; the torture test
//! hammers the boundary case deterministically.

use std::sync::Arc;

use proptest::prelude::*;
use seaweed_sim::exec::{
    partition_seed, run_partitioned, ExecConfig, ExecKind, Outbox, PartitionApp,
};
use seaweed_sim::{
    CrashSpec, Engine, Event, FaultPlan, NodeIdx, OutageSpec, PartitionSpec, SimConfig,
    SubTopology, Topology, TraceConfig, TrafficClass, UniformTopology,
};
use seaweed_types::{Duration, Time};

const N: usize = 12;
const PARTS: usize = 3;
const LATENCY: Duration = Duration(3_000); // 3 ms — also the lookahead
const HORIZON: Time = Time(20_000_000);

type Msg = u64;

/// A scripted action applied before the run (global node index space).
#[derive(Clone, Debug)]
enum Action {
    Up(u8, u64),
    Down(u8, u64),
    Timer(u8, u64, u64),
}

fn actions() -> impl Strategy<Value = Vec<Action>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..N as u8, 0u64..8_000_000).prop_map(|(n, t)| Action::Up(n, t)),
            (0u8..N as u8, 0u64..8_000_000).prop_map(|(n, t)| Action::Down(n, t)),
            (0u8..N as u8, 0u64..8_000_000, 0u64..1000)
                .prop_map(|(n, d, g)| Action::Timer(n, d, g)),
        ],
        1..40,
    )
}

/// Chaos plan exercising every injection mechanism, global index space.
fn chaos_plan() -> FaultPlan {
    FaultPlan {
        partitions: vec![PartitionSpec {
            // Straddles execution partitions 0 and 1 deliberately.
            members: vec![0, 1, 2, 5],
            from: Time(2_000_000),
            until: Time(5_000_000),
        }],
        crashes: vec![
            CrashSpec {
                node: NodeIdx(4),
                at: Time(3_000_000),
                rejoin_after: Duration::from_secs(2),
            },
            CrashSpec {
                node: NodeIdx(9),
                at: Time(4_000_000),
                rejoin_after: Duration::from_secs(1),
            },
        ],
        outages: vec![OutageSpec {
            members: vec![6, 7, 10],
            down_at: Time(6_000_000),
            up_at: Time(7_000_000),
            amnesia: true,
        }],
        // Uniform topology has a single zone, so a 0-0 window degrades
        // every link.
        link_faults: vec![seaweed_sim::LinkFaultSpec {
            zone_a: 0,
            zone_b: 0,
            from: Time(1_000_000),
            until: Time(8_000_000),
            extra_loss: 0.2,
            latency_mult: 3.0,
        }],
        dup_rate: 0.1,
        reorder_window: Duration::from_millis(20),
    }
}

/// One shard of the test application: echoes local messages, and on every
/// timer sends a message to the next partition and (every third tag) a
/// control payload to the one after — both timed **exactly** at the
/// lookahead bound, the tightest arrival the conservative protocol
/// admits.
struct ShardApp {
    part: u32,
    local_n: u32,
    log: Vec<String>,
    echoes: u32,
    remote_sends: u32,
}

impl PartitionApp<Msg> for ShardApp {
    type Ctl = u64;

    fn dispatch(&mut self, eng: &mut Engine<Msg>, ev: Event<Msg>, out: &mut Outbox<Msg, u64>) {
        self.log.push(format!("{:?} {ev:?}", eng.now()));
        match ev {
            // Detached timers (re-armed by `on_ctl`) fire even while the
            // node is down; only live nodes may transmit.
            Event::Timer { node, tag } if eng.is_up(node) => {
                let to = NodeIdx((node.0 + 1) % self.local_n);
                eng.send(node, to, tag, 64, TrafficClass::Query);
                if self.remote_sends < 64 {
                    self.remote_sends += 1;
                    let at = eng.now() + LATENCY; // exactly the bound
                    let dest = (self.part + 1) % PARTS as u32;
                    eng.charge_remote_tx(node, 64, TrafficClass::Query);
                    out.send_remote(
                        dest,
                        at,
                        NodeIdx(node.0 % self.local_n),
                        tag ^ 0xdead,
                        64,
                        TrafficClass::Query,
                    );
                    if tag % 3 == 0 {
                        out.send_ctl((self.part + 2) % PARTS as u32, at, tag);
                    }
                }
            }
            Event::Message { from, to, payload } => {
                let v = payload.into_owned();
                if self.echoes < 200 && eng.is_up(to) && eng.is_up(from) {
                    self.echoes += 1;
                    eng.send(to, from, v ^ 1, 48, TrafficClass::Maintenance);
                }
            }
            _ => {}
        }
    }

    fn on_ctl(
        &mut self,
        eng: &mut Engine<Msg>,
        at: Time,
        from_part: u32,
        ctl: u64,
        _out: &mut Outbox<Msg, u64>,
    ) {
        self.log
            .push(format!("ctl@{at:?} from p{from_part} tag {ctl}"));
        // Re-enter the event stream at the stamped time.
        let node = NodeIdx((ctl as u32) % self.local_n);
        let delay = Duration::from_micros(at.as_micros().saturating_sub(eng.now().as_micros()));
        let _ = eng.set_detached_timer(node, delay, 0x0c71 ^ ctl);
    }
}

/// Per-shard fingerprint: full event log, bandwidth report rendering,
/// exported JSONL trace.
type Fingerprint = (Vec<String>, String, String);

fn run_exec(script: &[Action], seed: u64, kind: ExecKind, workers: usize) -> Vec<Fingerprint> {
    let global = Arc::new(UniformTopology::new(N, LATENCY));
    let pmap = global.partition_map(PARTS).expect("partitionable");
    assert_eq!(pmap.lookahead, LATENCY);
    let chaos = chaos_plan();
    let cfg = ExecConfig {
        kind,
        partitions: PARTS,
        workers,
    };
    let build = |p: usize| {
        let members = pmap.members[p].clone();
        let local_n = members.len() as u32;
        let topo = SubTopology::new(global.clone(), members.clone());
        let mut eng: Engine<Msg> = Engine::new(
            Box::new(topo),
            SimConfig {
                seed: partition_seed(seed, p),
                loss_rate: 0.05,
                faults: Some(chaos.for_partition(&members)),
                trace: Some(TraceConfig::default()),
                ..SimConfig::default()
            },
        );
        // Stagger the boot so shard 0's nodes are not special.
        for l in 0..local_n {
            eng.schedule_up(Time(u64::from(members[l as usize])), NodeIdx(l));
        }
        // Project the global script onto this shard.
        for a in script {
            let (g, action): (u32, _) = match *a {
                Action::Up(n, t) => (u32::from(n), (Some(true), t, 0)),
                Action::Down(n, t) => (u32::from(n), (Some(false), t, 0)),
                Action::Timer(n, d, tag) => (u32::from(n), (None, d, tag)),
            };
            let Ok(local) = members.binary_search(&g) else {
                continue;
            };
            let node = NodeIdx(local as u32);
            match action {
                (Some(true), t, _) => eng.schedule_up(Time(100 + t), node),
                (Some(false), t, _) => eng.schedule_down(Time(100 + t), node),
                (None, d, tag) => {
                    let _ = eng.set_timer(node, Duration::from_micros(d), tag);
                }
            }
        }
        let app = ShardApp {
            part: p as u32,
            local_n,
            log: Vec::new(),
            echoes: 0,
            remote_sends: 0,
        };
        (eng, app)
    };
    let finish = |_p: usize, mut eng: Engine<Msg>, app: ShardApp| {
        let trace = eng
            .take_tracer()
            .map(|t| t.export_jsonl())
            .unwrap_or_default();
        let report = eng.finish();
        (app.log, format!("{report:?}"), trace)
    };
    run_partitioned(&cfg, pmap.lookahead, HORIZON, build, finish)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any churn/timer script under the full chaos plan, parallel
    /// execution is byte-identical to serial — per-shard event logs,
    /// bandwidth reports and traces — and reruns reproduce exactly.
    #[test]
    fn parallel_matches_serial_bytewise(script in actions(), seed in 0u64..200) {
        let serial = run_exec(&script, seed, ExecKind::Serial, 0);
        let parallel = run_exec(&script, seed, ExecKind::Parallel, 3);
        prop_assert_eq!(&serial, &parallel, "serial vs parallel");
        // And with fewer workers than partitions (worker owns 2 shards).
        let squeezed = run_exec(&script, seed, ExecKind::Parallel, 2);
        prop_assert_eq!(&serial, &squeezed, "serial vs 2-worker");
        let rerun = run_exec(&script, seed, ExecKind::Parallel, 3);
        prop_assert_eq!(&parallel, &rerun, "parallel rerun");
    }
}

/// Partition-boundary torture: two shards ping-pong messages timed at
/// *exactly* the lookahead bound for the whole run — every cross-partition
/// arrival lands on the first microsecond the conservative protocol
/// admits, the worst case for window-edge bookkeeping. Runs long enough
/// for thousands of boundary crossings; serial and parallel must agree
/// byte-for-byte and actually deliver.
#[test]
fn lookahead_boundary_torture() {
    struct Pinger {
        part: u32,
        log: Vec<String>,
        delivered: u64,
    }
    impl PartitionApp<u64> for Pinger {
        type Ctl = ();
        fn dispatch(&mut self, eng: &mut Engine<u64>, ev: Event<u64>, out: &mut Outbox<u64, ()>) {
            self.log.push(format!("{:?} {ev:?}", eng.now()));
            match ev {
                // Kick off and keep the boundary exchange alive.
                Event::NodeUp { node } | Event::Timer { node, .. } => {
                    let at = eng.now() + LATENCY; // exact bound
                    eng.charge_remote_tx(node, 32, TrafficClass::Query);
                    out.send_remote(1 - self.part, at, node, 1, 32, TrafficClass::Query);
                }
                Event::Message { to, payload, .. } => {
                    self.delivered += 1;
                    let _ = payload.into_owned();
                    // Bounce straight back, again at the exact bound.
                    let at = eng.now() + LATENCY;
                    eng.charge_remote_tx(to, 32, TrafficClass::Query);
                    out.send_remote(1 - self.part, at, to, 1, 32, TrafficClass::Query);
                }
                _ => {}
            }
        }
    }
    let run = |kind: ExecKind| {
        let global = Arc::new(UniformTopology::new(4, LATENCY));
        let pmap = global.partition_map(2).expect("partitionable");
        let cfg = ExecConfig {
            kind,
            partitions: 2,
            workers: 2,
        };
        let build = |p: usize| {
            let members = pmap.members[p].clone();
            let mut eng: Engine<u64> = Engine::new(
                Box::new(SubTopology::new(global.clone(), members)),
                SimConfig {
                    seed: partition_seed(7, p),
                    ..SimConfig::default()
                },
            );
            eng.schedule_up(Time(1), NodeIdx(0));
            eng.schedule_up(Time(1), NodeIdx(1));
            (
                eng,
                Pinger {
                    part: p as u32,
                    log: Vec::new(),
                    delivered: 0,
                },
            )
        };
        let finish = |_p: usize, eng: Engine<u64>, app: Pinger| {
            (app.log, app.delivered, format!("{:?}", eng.finish()))
        };
        run_partitioned(&cfg, pmap.lookahead, Time(2_000_000), build, finish)
    };
    let serial = run(ExecKind::Serial);
    let parallel = run(ExecKind::Parallel);
    assert_eq!(serial, parallel);
    // ~2 s of 3 ms round-trips from 4 initial pings: thousands of
    // boundary deliveries, not a degenerate silence.
    let total: u64 = serial.iter().map(|s| s.1).sum();
    assert!(total > 2_000, "only {total} boundary deliveries");
}

/// Intra-partition multicast still shares one allocation under the
/// executor: fanning out to k local destinations takes k−1 lazy clones at
/// consumption (the last copy moves out free) and **zero** cross-partition
/// clones — while a shared payload crossing a partition boundary is
/// counted by the cross-partition counter, not the fan-out fallback.
#[test]
fn multicast_shares_allocation_intra_partition() {
    use seaweed_sim::{payload_cross_partition_clones, payload_fallback_clones, Payload};

    let mut eng: Engine<Vec<u64>> = Engine::new(
        Box::new(UniformTopology::new(4, LATENCY)),
        SimConfig::default(),
    );
    for n in 0..4 {
        eng.schedule_up(Time::ZERO, NodeIdx(n));
    }
    while eng.next_event_before(Time(1)).is_some() {}
    let fallback_before = payload_fallback_clones();
    let cross_before = payload_cross_partition_clones();
    eng.multicast(
        NodeIdx(0),
        &[NodeIdx(1), NodeIdx(2), NodeIdx(3)],
        vec![42; 32],
        128,
        TrafficClass::Query,
    );
    let mut consumed = 0;
    while let Some((_, ev)) = eng.next_event_before(Time(1_000_000)) {
        if let Event::Message { payload, .. } = ev {
            let _ = payload.into_owned();
            consumed += 1;
        }
    }
    assert_eq!(consumed, 3);
    assert_eq!(
        payload_fallback_clones() - fallback_before,
        2,
        "3-way fan-out = one shared allocation, 2 clones, last moves free"
    );
    assert_eq!(
        payload_cross_partition_clones() - cross_before,
        0,
        "no partition boundary was crossed"
    );

    // A still-shared payload leaving through a partition boundary books
    // its clone on the cross-partition counter instead.
    let shared = std::rc::Rc::new(vec![7u64; 8]);
    let a: Payload<Vec<u64>> = Payload::Shared(shared.clone());
    let _ = a.into_owned_remote();
    assert_eq!(payload_cross_partition_clones() - cross_before, 1);
    assert_eq!(
        payload_fallback_clones() - fallback_before,
        2,
        "fan-out counter untouched by the remote path"
    );
    drop(shared);
}
