//! Model-based test of the slab-backed event queue: random interleavings
//! of arming, sending, cancelling, churn, stepping and peeking, checked
//! operation by operation against a plain
//! `BTreeMap<(Time, seq), _>` that allocates sequence numbers the way the
//! engine does — the reference for the timer wheel's delivery order.
//! The model knows nothing of slabs, keys or tombstones, so
//! whatever index recycling the engine does must be invisible: same pop
//! sequence, `next_pending_at` never a cancelled entry's time, and a stale
//! handle — fired, cancelled twice, swept by a node-down, or naming a slab
//! index that a later event now occupies — cancels nothing.

use std::collections::BTreeMap;

use proptest::prelude::*;
use seaweed_sim::{Engine, Event, NodeIdx, SimConfig, TimerHandle, TrafficClass, UniformTopology};
use seaweed_types::{Duration, Time};

const NODES: u8 = 4;
const LATENCY_US: u64 = 3_000;

#[derive(Clone, Debug)]
enum Op {
    Timer {
        node: u8,
        delay: u64,
        detached: bool,
    },
    Send {
        from: u8,
        to: u8,
    },
    /// Cancels the `pick`-th handle ever issued (mod the count), live or
    /// stale.
    Cancel {
        pick: u16,
    },
    Up {
        node: u8,
        dt: u64,
    },
    Down {
        node: u8,
        dt: u64,
    },
    /// One `next_event_before(now + dt)` call.
    Step {
        dt: u64,
    },
    /// `next_event_before(now + dt)` until it returns `None`.
    Drain {
        dt: u64,
    },
    Peek,
}

/// Delays with deliberate ties (0–3 µs), short hops within one or two
/// wheel levels, spans that park three levels up, and seconds-long ones
/// that cascade down through four.
fn delay() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..4, 0u64..5_000, 0u64..400_000, 0u64..5_000_000]
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let timer = || {
        (0..NODES, delay(), any::<bool>()).prop_map(|(node, delay, detached)| Op::Timer {
            node,
            delay,
            detached,
        })
    };
    let cancel = || any::<u16>().prop_map(|pick| Op::Cancel { pick });
    let step = || delay().prop_map(|dt| Op::Step { dt });
    // The vendored `prop_oneof!` is unweighted: arming, cancelling and
    // stepping are listed twice to make them twice as likely.
    prop::collection::vec(
        prop_oneof![
            timer(),
            timer(),
            (0..NODES, 0..NODES).prop_map(|(from, to)| Op::Send { from, to }),
            cancel(),
            cancel(),
            (0..NODES, delay()).prop_map(|(node, dt)| Op::Up { node, dt }),
            (0..NODES, delay()).prop_map(|(node, dt)| Op::Down { node, dt }),
            step(),
            step(),
            delay().prop_map(|dt| Op::Drain { dt }),
            any::<bool>().prop_map(|_| Op::Peek),
        ],
        1..200,
    )
}

/// What the model expects to be delivered, and what an engine event is
/// reduced to for comparison.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Out {
    Up(u8),
    Down(u8),
    Msg { from: u8, to: u8, tag: u64 },
    Timer { node: u8, tag: u64 },
}

#[derive(Clone, Copy, Debug)]
enum Queued {
    Up(u8),
    Down(u8),
    Msg { from: u8, to: u8, tag: u64 },
    Timer { node: u8, tag: u64, detached: bool },
}

/// The reference: an ordered map and the engine's documented rules.
#[derive(Default)]
struct Model {
    now: u64,
    seq: u64,
    up: [bool; NODES as usize],
    queue: BTreeMap<(u64, u64), Queued>,
    cancelled: u64,
}

impl Model {
    fn push(&mut self, at: u64, q: Queued) -> (u64, u64) {
        let key = (at.max(self.now), self.seq);
        self.seq += 1;
        self.queue.insert(key, q);
        key
    }

    fn next_before(&mut self, horizon: u64) -> Option<(u64, Out)> {
        while let Some((&(at, seq), _)) = self.queue.first_key_value() {
            if at > horizon {
                break;
            }
            let q = self.queue.remove(&(at, seq)).expect("first key");
            self.now = at;
            match q {
                Queued::Up(n) if !self.up[n as usize] => {
                    self.up[n as usize] = true;
                    return Some((at, Out::Up(n)));
                }
                Queued::Down(n) if self.up[n as usize] => {
                    self.up[n as usize] = false;
                    let before = self.queue.len();
                    self.queue.retain(|_, q| {
                        !matches!(*q, Queued::Timer { node, detached: false, .. } if node == n)
                    });
                    self.cancelled += (before - self.queue.len()) as u64;
                    return Some((at, Out::Down(n)));
                }
                Queued::Msg { from, to, tag } if self.up[to as usize] => {
                    return Some((at, Out::Msg { from, to, tag }));
                }
                Queued::Timer {
                    node,
                    tag,
                    detached,
                } if detached || self.up[node as usize] => {
                    return Some((at, Out::Timer { node, tag }));
                }
                // Duplicate transitions, messages to a down node and tied
                // timers of a down node are swallowed.
                _ => {}
            }
        }
        self.now = self.now.max(horizon);
        None
    }
}

fn reduce(ev: Event<u64>) -> Out {
    match ev {
        Event::NodeUp { node } => Out::Up(node.0 as u8),
        Event::NodeDown { node } => Out::Down(node.0 as u8),
        Event::Message { from, to, payload } => Out::Msg {
            from: from.0 as u8,
            to: to.0 as u8,
            tag: payload.into_owned(),
        },
        Event::Timer { node, tag } => Out::Timer {
            node: node.0 as u8,
            tag,
        },
        other => panic!("no fault plan installed, yet {other:?}"),
    }
}

fn gauge(eng: &Engine<u64>, name: &str) -> usize {
    eng.metrics()
        .gauge(name)
        .unwrap_or_else(|| panic!("gauge {name} exported")) as usize
}

/// One `next_event_before(horizon)` on engine and model; they must agree.
/// Returns whether an event was delivered.
fn pop_both(
    eng: &mut Engine<u64>,
    model: &mut Model,
    horizon: u64,
    step: usize,
) -> Result<bool, TestCaseError> {
    let got = eng.next_event_before(Time(horizon));
    let want = model.next_before(horizon);
    prop_assert_eq!(
        got.map(|(t, ev)| (t.0, reduce(ev))),
        want,
        "step {} (horizon {})",
        step,
        horizon
    );
    Ok(want.is_some())
}

fn check(script: &[Op]) -> Result<(), TestCaseError> {
    let mut eng: Engine<u64> = Engine::new(
        Box::new(UniformTopology::new(
            usize::from(NODES),
            Duration::from_micros(LATENCY_US),
        )),
        SimConfig::default(),
    );
    let mut model = Model::default();
    // Each handle with the model key of the timer it was issued for.
    let mut handles: Vec<(TimerHandle, (u64, u64))> = Vec::new();
    let mut tag = 0u64;
    for (step, op) in script.iter().enumerate() {
        match *op {
            Op::Timer {
                node,
                delay,
                detached,
            } => {
                tag += 1;
                let d = Duration::from_micros(delay);
                let n = NodeIdx(u32::from(node));
                let h = if detached {
                    eng.set_detached_timer(n, d, tag)
                } else {
                    eng.set_timer(n, d, tag)
                };
                let key = model.push(
                    model.now + delay,
                    Queued::Timer {
                        node,
                        tag,
                        detached,
                    },
                );
                prop_assert_eq!(h.fires_at(), Time(key.0));
                handles.push((h, key));
            }
            // A down node may not send (the engine asserts as much).
            Op::Send { from, to } if model.up[from as usize] => {
                tag += 1;
                let (f, t) = (NodeIdx(u32::from(from)), NodeIdx(u32::from(to)));
                eng.send(f, t, tag, 64, TrafficClass::Query);
                // `UniformTopology`: a node is zero µs from itself, so a
                // self-send lands in the instant being handed out.
                let latency = if from == to { 0 } else { LATENCY_US };
                model.push(model.now + latency, Queued::Msg { from, to, tag });
            }
            Op::Send { .. } => {}
            Op::Cancel { pick } if !handles.is_empty() => {
                let (h, key) = handles[usize::from(pick) % handles.len()];
                let pending = model.queue.remove(&key).is_some();
                model.cancelled += u64::from(pending);
                prop_assert_eq!(
                    eng.cancel_timer(h),
                    pending,
                    "step {}: cancel of {:?}",
                    step,
                    key
                );
            }
            Op::Cancel { .. } => {}
            Op::Up { node, dt } => {
                eng.schedule_up(Time(model.now + dt), NodeIdx(u32::from(node)));
                model.push(model.now + dt, Queued::Up(node));
            }
            Op::Down { node, dt } => {
                eng.schedule_down(Time(model.now + dt), NodeIdx(u32::from(node)));
                model.push(model.now + dt, Queued::Down(node));
            }
            Op::Step { dt } => {
                let horizon = model.now + dt;
                pop_both(&mut eng, &mut model, horizon, step)?;
            }
            Op::Drain { dt } => {
                let horizon = model.now + dt;
                while pop_both(&mut eng, &mut model, horizon, step)? {}
            }
            Op::Peek => {
                let want = model.queue.first_key_value().map(|(&(at, _), _)| Time(at));
                prop_assert_eq!(eng.next_pending_at(), want, "step {}", step);
                let depth = gauge(&eng, "sim.queue.depth");
                prop_assert_eq!(depth, model.queue.len());
                prop_assert!(
                    depth + gauge(&eng, "sim.queue.tombstones")
                        <= gauge(&eng, "sim.queue.slab_high_water")
                );
            }
        }
        prop_assert_eq!(eng.now(), Time(model.now), "step {}", step);
        prop_assert_eq!(eng.timers_cancelled, model.cancelled, "step {}", step);
    }
    // Run dry: everything left comes out in model order, and the slab
    // holds nothing afterwards.
    let horizon = model.now + 10_000_000;
    while pop_both(&mut eng, &mut model, horizon, script.len())? {}
    prop_assert_eq!(eng.next_pending_at(), None);
    prop_assert_eq!(gauge(&eng, "sim.queue.depth"), 0);
    prop_assert_eq!(gauge(&eng, "sim.queue.tombstones"), 0);
    prop_assert_eq!(gauge(&eng, "sim.queue.armed_timers"), 0);
    for (h, _) in handles {
        prop_assert!(!eng.cancel_timer(h), "stale handle cancelled something");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn queue_matches_ordered_map_model(script in ops()) {
        check(&script)?;
    }
}
