//! Timer-wheel edge cases: handles that outlive their timer (and the
//! slab index it was parked at), timers on down nodes, cancellation
//! inside a large same-instant batch, and fire times sitting exactly on
//! cascade-level boundaries (64 µs, 4096 µs, 262144 µs for a 6-bit
//! wheel). Every expectation is an absolute fire time and order, so the
//! wheel's lazy tombstones and cascades have nowhere to hide.

use seaweed_sim::{Engine, Event, NodeIdx, SimConfig, UniformTopology};
use seaweed_types::{Duration, Time};

type Eng = Engine<()>;

fn engine(n: usize) -> Eng {
    Engine::new(
        Box::new(UniformTopology::new(n, Duration::from_millis(1))),
        SimConfig::default(),
    )
}

fn up(e: &mut Eng, node: u32) {
    e.schedule_up(Time::ZERO, NodeIdx(node));
    let (_, ev) = e.next_event_before(Time(1)).expect("up event");
    assert!(matches!(ev, Event::NodeUp { .. }));
}

fn drain(e: &mut Eng, horizon: Time) -> Vec<(Time, NodeIdx, u64)> {
    let mut out = Vec::new();
    while let Some((t, ev)) = e.next_event_before(horizon) {
        if let Event::Timer { node, tag } = ev {
            out.push((t, node, tag));
        }
    }
    out
}

#[test]
fn cancel_after_fire_is_a_noop() {
    let mut e = engine(1);
    up(&mut e, 0);
    let h = e.set_timer(NodeIdx(0), Duration::from_micros(100), 1);
    let later = e.set_timer(NodeIdx(0), Duration::from_micros(200), 2);
    let fired = drain(&mut e, Time(150));
    assert_eq!(fired.len(), 1);
    assert!(!e.cancel_timer(h), "cancel after fire must no-op");
    // The stale cancel must not have disturbed the pending timer.
    let fired = drain(&mut e, Time(300));
    assert_eq!(fired, vec![(Time(200), NodeIdx(0), 2)]);
    assert!(!e.cancel_timer(later));
    assert_eq!(e.timers_cancelled, 0);
}

#[test]
fn double_cancel_is_idempotent() {
    let mut e = engine(1);
    up(&mut e, 0);
    let h = e.set_timer(NodeIdx(0), Duration::from_secs(1), 7);
    let kept = e.set_timer(NodeIdx(0), Duration::from_secs(2), 8);
    assert!(e.cancel_timer(h));
    assert!(!e.cancel_timer(h), "second cancel must no-op");
    assert_eq!(e.timers_cancelled, 1);
    let fired = drain(&mut e, Time::ZERO + Duration::from_secs(3));
    assert_eq!(fired.len(), 1);
    assert_eq!(fired[0].2, 8);
    let _ = kept;
}

#[test]
fn detached_timer_on_never_up_node_fires() {
    let mut e = engine(2);
    // Node 1 never comes up. A detached deadline armed for it (e.g. a
    // TTL) must still fire; an auto timer must be swallowed at fire
    // time.
    e.set_detached_timer(NodeIdx(1), Duration::from_micros(500), 11);
    e.set_timer(NodeIdx(1), Duration::from_micros(400), 12);
    let fired = drain(&mut e, Time(1_000));
    assert_eq!(fired, vec![(Time(500), NodeIdx(1), 11)]);
}

/// Delays straddling every cascade-level boundary of the 6-bit wheel
/// (one level spans 64 µs, two span 4096 µs, three span 262144 µs) fire
/// at their exact requested times, in arming-independent order.
#[test]
fn timers_exactly_on_cascade_boundaries() {
    let delays: [u64; 10] = [
        1, 63, 64, 65, 4_095, 4_096, 4_097, 262_143, 262_144, 262_145,
    ];
    let mut e = engine(1);
    up(&mut e, 0);
    // Arm in shuffled order so insertion order can't mask a
    // mis-binned slot.
    for (i, &d) in delays.iter().enumerate().rev() {
        e.set_timer(NodeIdx(0), Duration::from_micros(d), i as u64);
    }
    let fired = drain(&mut e, Time(1_000_000));
    assert_eq!(fired.len(), delays.len());
    for (i, &d) in delays.iter().enumerate() {
        assert_eq!(fired[i].0, Time(d), "delay {d} fire time");
        assert_eq!(fired[i].2, i as u64, "delay {d} order");
    }
}

/// A high-level timer cancelled before its slot cascades down must leave
/// no trace: no event, no disturbance of its neighbors, and the handle
/// stays dead afterwards.
#[test]
fn cancel_before_cascade_leaves_nothing_behind() {
    let mut e = engine(1);
    up(&mut e, 0);
    // Both land in a level >= 1 slot (the second is the sibling).
    let doomed = e.set_timer(NodeIdx(0), Duration::from_micros(262_144), 1);
    e.set_timer(NodeIdx(0), Duration::from_micros(262_144 + 32), 2);
    // Advance the clock, but not far enough to cascade that slot.
    assert!(e.next_event_before(Time(100_000)).is_none());
    assert!(e.cancel_timer(doomed));
    let fired = drain(&mut e, Time(500_000));
    assert_eq!(fired, vec![(Time(262_176), NodeIdx(0), 2)]);
    assert!(!e.cancel_timer(doomed));
    assert_eq!(e.timers_cancelled, 1);
}

/// The ABA case of a slab: a handle outlives its timer, the timer's index
/// is handed to a later timer, and the old handle is cancelled. The
/// sequence number in the handle must tell the two apart.
#[test]
fn stale_handle_to_a_recycled_slot_cancels_nothing() {
    let mut e = engine(1);
    up(&mut e, 0);
    // Fired, then recycled: the queue is empty when `heir` is armed,
    // so it takes over the index `fired` was parked at.
    let fired = e.set_timer(NodeIdx(0), Duration::from_micros(10), 1);
    assert_eq!(drain(&mut e, Time(20)).len(), 1);
    let heir = e.set_timer(NodeIdx(0), Duration::from_micros(10), 2);
    assert!(!e.cancel_timer(fired));
    assert_eq!(drain(&mut e, Time(40)), vec![(Time(30), NodeIdx(0), 2)]);
    assert!(!e.cancel_timer(heir));

    // Cancelled, reaped when the clock passes its time, then recycled.
    let cancelled = e.set_timer(NodeIdx(0), Duration::from_micros(10), 3);
    assert!(e.cancel_timer(cancelled));
    assert!(drain(&mut e, Time(60)).is_empty());
    let heir = e.set_detached_timer(NodeIdx(0), Duration::from_micros(10), 4);
    assert!(!e.cancel_timer(cancelled));
    assert!(!e.cancel_timer(fired));
    assert_eq!(drain(&mut e, Time(80)), vec![(Time(70), NodeIdx(0), 4)]);
    assert!(!e.cancel_timer(heir));
    assert_eq!(e.timers_cancelled, 1);
    // Every event above really did share one slab index.
    let slab = e.metrics().gauge("sim.queue.slab_high_water");
    assert_eq!(slab, Some(1.0));
}

/// Handlers cancelling siblings inside one large same-µs batch (timers
/// armed together with equal delays): each cancel is a constant-time
/// mark, the cancelled half never fires, and the rest keeps its order.
#[test]
fn cancelling_every_other_entry_of_a_same_instant_batch() {
    const BATCH: u64 = 10_000;
    let mut e = engine(1);
    up(&mut e, 0);
    let handles: Vec<_> = (0..BATCH)
        .map(|tag| e.set_timer(NodeIdx(0), Duration::from_micros(500), tag))
        .collect();
    // The first fire pulls the whole instant into the hand-out batch;
    // its "handler" then cancels every odd sibling in it.
    let horizon = Time(1_000);
    let (t, ev) = e.next_event_before(horizon).expect("first of the batch");
    assert_eq!(t, Time(500));
    assert!(matches!(ev, Event::Timer { tag: 0, .. }));
    for h in handles.iter().skip(1).step_by(2) {
        assert!(e.cancel_timer(*h));
    }
    assert_eq!(e.timers_cancelled, BATCH / 2);
    assert_eq!(e.next_pending_at(), Some(Time(500)));
    let rest = drain(&mut e, horizon);
    let want: Vec<_> = (2..BATCH)
        .step_by(2)
        .map(|tag| (Time(500), NodeIdx(0), tag))
        .collect();
    assert_eq!(rest, want);
    assert!(handles.iter().all(|h| !e.cancel_timer(*h)));
    assert_eq!(e.timers_cancelled, BATCH / 2);
    assert_eq!(e.next_pending_at(), None);
}
