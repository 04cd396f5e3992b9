//! Leak-freedom of the event queue: a million arm/cancel/fire cycles at
//! a constant live population must leave the slab, its index accounting
//! and the per-endsystem armed lists sized by that population — not by
//! the number of events processed — and the last `NodeDown` must take
//! everything back to baseline.

use seaweed_sim::{Engine, Event, NodeIdx, SimConfig, TimerHandle, TrafficClass, UniformTopology};
use seaweed_types::{Duration, Time};

const NODES: u32 = 64;
/// Timers each node keeps armed; every fire re-arms one.
const PER_NODE: u32 = 16;
const POPULATION: usize = (NODES * PER_NODE) as usize;
const CYCLES: u64 = 1_000_000;

struct Gauges {
    depth: usize,
    slab: usize,
    tombstones: usize,
    armed: usize,
}

fn gauges(e: &Engine<u64>) -> Gauges {
    let m = e.metrics();
    let g = |name: &str| m.gauge(name).expect("queue gauge exported") as usize;
    Gauges {
        depth: g("sim.queue.depth"),
        slab: g("sim.queue.slab_high_water"),
        tombstones: g("sim.queue.tombstones"),
        armed: g("sim.queue.armed_timers"),
    }
}

/// Delays from 1 µs to ~67 s: every wheel level a protocol timer uses.
fn delay(x: u64) -> Duration {
    Duration::from_micros(1 + (x >> 8) % (1 << (x % 27)))
}

#[test]
fn queue_is_sized_by_population_not_by_events() {
    let mut e: Engine<u64> = Engine::new(
        Box::new(UniformTopology::new(
            NODES as usize,
            Duration::from_millis(2),
        )),
        SimConfig::default(),
    );
    for n in 0..NODES {
        e.schedule_up(Time::ZERO, NodeIdx(n));
    }
    let far = Time::ZERO + Duration::from_hours(24 * 365);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 11
    };
    // The most recent handle per node: cancelled (if still pending) and
    // replaced on every other fire, so cancellations hit every age.
    let mut victim: Vec<Option<TimerHandle>> = vec![None; NODES as usize];
    let mut handled = 0u64;
    let mut warm = None;
    let mut peak_in_use = 0;
    while handled < CYCLES {
        let (_, ev) = e.next_event_before(far).expect("the population re-arms");
        handled += 1;
        match ev {
            Event::NodeUp { node } => {
                for _ in 0..PER_NODE {
                    e.set_timer(node, delay(next()), u64::from(node.0));
                }
            }
            Event::Timer { node, .. } => {
                if handled.is_multiple_of(2) {
                    // Also swap one pending timer for a fresh one: the
                    // population holds, a tombstone is left behind.
                    let h = e.set_timer(node, delay(next()), u64::from(node.0));
                    let old = victim[node.idx()].replace(h);
                    if old.is_some_and(|old| e.cancel_timer(old)) {
                        e.set_timer(node, delay(next()), u64::from(node.0));
                    }
                } else {
                    e.set_timer(node, delay(next()), u64::from(node.0));
                }
                if handled.is_multiple_of(8) {
                    let to = NodeIdx((next() % u64::from(NODES)) as u32);
                    e.send(node, to, handled, 64, TrafficClass::Maintenance);
                }
            }
            Event::Message { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        if handled.is_multiple_of(1_000) {
            let g = gauges(&e);
            assert_eq!(g.armed, POPULATION, "at {handled}");
            peak_in_use = peak_in_use.max(g.depth + g.tombstones);
            if handled == CYCLES / 10 {
                warm = Some(g.slab);
            }
        }
    }
    let g = gauges(&e);
    let warm = warm.expect("sampled at a tenth of the run");
    // Ten times the events, the same slab: it is sized by what is parked
    // at once (live plus not-yet-reaped tombstones), sampled above.
    assert!(
        g.slab <= warm + warm / 4,
        "slab grew {warm} -> {} over 9e5 cycles",
        g.slab
    );
    assert!(
        g.slab <= 2 * peak_in_use,
        "slab {} vs {peak_in_use} in use at once",
        g.slab
    );
    assert!(
        g.depth + g.tombstones <= g.slab,
        "live {} + tombstoned {} exceed the slab {}",
        g.depth,
        g.tombstones,
        g.slab
    );
    assert!(e.timers_cancelled > CYCLES / 8, "cancels ran");

    // Baseline: the last NodeDown empties every armed list at once, and
    // once the clock has passed the dead keys nothing is parked at all.
    for n in 0..NODES {
        e.schedule_down(e.now(), NodeIdx(n));
    }
    let mut downs = 0;
    while let Some((_, ev)) = e.next_event_before(e.now()) {
        downs += u32::from(matches!(ev, Event::NodeDown { .. }));
    }
    assert_eq!(downs, NODES);
    assert_eq!(gauges(&e).armed, 0);
    while e.next_event_before(far).is_some() {}
    let end = gauges(&e);
    assert_eq!((end.depth, end.tombstones, end.armed), (0, 0, 0));
    assert_eq!(end.slab, g.slab, "draining parked nothing");
    assert_eq!(e.next_pending_at(), None);
}
