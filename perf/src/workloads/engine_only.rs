//! `engine_only`: the discrete-event engine with nothing on top.
//!
//! `Engine<u64>` over a CorpNet topology. Every endsystem runs a 30 s
//! heartbeat: when it fires it multicasts to 8 pseudo-neighbours, arms
//! the next heartbeat and a watchdog one period later, and cancels the
//! previous watchdog — so half of all timers set are cancelled, as in
//! the overlay's failure detection. Handlers do nothing else. `sim` does
//! all the work here: a change to `overlay`, `core` or `store` must not
//! move this workload, and its events/s is the host-calibration score.

use std::time::Instant;

use seaweed_sim::{CorpNetTopology, Engine, Event, NodeIdx, SimConfig, TimerHandle, TrafficClass};
use seaweed_types::{Duration, Time};

use super::{mix, rss_mb, Rep, Size};
use crate::alloc;
use crate::classify::Class;
use crate::outcome::{Outcome, Stage};

#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    pub endsystems: usize,
    /// Heartbeats each endsystem sends.
    pub beats: u64,
    /// Slices the timed phase is cut into; the host probe is sampled
    /// between them.
    pub slices: u64,
}

#[must_use]
pub fn full_size(size: Size) -> Scenario {
    match size {
        Size::Full => Scenario {
            endsystems: 16_000,
            beats: 340,
            slices: 16,
        },
        Size::Smoke => Scenario {
            endsystems: 500,
            beats: 40,
            slices: 2,
        },
    }
}

/// Short enough to run in every process, long enough to time.
pub const CALIBRATION: Scenario = Scenario {
    endsystems: 2_000,
    beats: 80,
    slices: 4,
};

const PERIOD: Duration = Duration(30 * Duration::SECOND.0);
const FANOUT: u32 = 8;
const TAG_BEAT: u64 = 1;
const TAG_WATCHDOG: u64 = 2;

pub fn run(rep: &mut Rep, seed: u64, sc: Scenario) -> Outcome {
    let n = sc.endsystems;
    let topo = rep.stage(Stage::Topology, || CorpNetTopology::new(n, seed));
    let (mut eng, neighbours, sizes) = rep.stage(Stage::Overlay, || {
        let eng: Engine<u64> = Engine::new(
            Box::new(topo),
            SimConfig {
                seed,
                ..SimConfig::default()
            },
        );
        let neighbours: Vec<[NodeIdx; FANOUT as usize]> = (0..n as u64)
            .map(|i| {
                std::array::from_fn(|k| {
                    let off = 1 + mix(mix(seed ^ (i << 8)) ^ k as u64) % (n as u64 - 1);
                    NodeIdx(((i + off) % n as u64) as u32)
                })
            })
            .collect();
        let sizes: Vec<u32> = (0..n as u64)
            .map(|i| 40 + (mix(mix(seed) ^ i) % 32) as u32)
            .collect();
        (eng, neighbours, sizes)
    });
    // Endsystems come up staggered across the first period.
    let step = PERIOD.as_micros() / n as u64;
    rep.stage(Stage::Replay, || {
        for i in 0..n {
            eng.schedule_up(Time(1 + i as u64 * step), NodeIdx(i as u32));
        }
    });
    let rss_after_setup_mb = rss_mb("VmRSS:");

    let mut ledger = rep.start_run();
    if rep.setup_only {
        return Outcome::blank(n, rep.setup, rss_after_setup_mb);
    }
    let mut beats_left: Vec<u64> = vec![sc.beats; n];
    let mut watchdog: Vec<Option<TimerHandle>> = vec![None; n];
    let mut events = 0u64;
    // Every heartbeat is sent by `beats × period` after the last
    // endsystem came up; one more period lets the last messages land.
    let horizon = Time((sc.beats + 2) * PERIOD.as_micros());
    let mut handle = |eng: &mut Engine<u64>, ev: Event<u64>| match ev {
        Event::NodeUp { node } => {
            let _ = eng.set_timer(node, PERIOD, TAG_BEAT);
        }
        Event::Timer { node, tag } if tag == TAG_BEAT => {
            let i = node.idx();
            eng.multicast(
                node,
                &neighbours[i],
                i as u64,
                sizes[i],
                TrafficClass::Overlay,
            );
            if let Some(h) = watchdog[i].take() {
                eng.cancel_timer(h);
            }
            beats_left[i] -= 1;
            if beats_left[i] > 0 {
                let _ = eng.set_timer(node, PERIOD, TAG_BEAT);
                watchdog[i] = Some(eng.set_timer(node, PERIOD + PERIOD, TAG_WATCHDOG));
            }
        }
        Event::Timer { .. } | Event::Message { .. } => {}
        other => unreachable!("engine_only schedules no {other:?}"),
    };
    let mut t = Instant::now();
    let mut a = alloc::thread_counts();
    for slice in 1..=sc.slices {
        let until = Time(horizon.as_micros() * slice / sc.slices);
        while let Some((at, ev)) = eng.next_event_before(until) {
            events += 1;
            handle(&mut eng, ev);
            // Handlers only call back into the engine (send, arm,
            // cancel), so pop and handler are one `sim.pop` span.
            if let Some(ledger) = ledger.as_mut() {
                let t1 = Instant::now();
                let a1 = alloc::thread_counts();
                ledger.roll(at.hours_since_epoch(), t);
                ledger.add(
                    Class::SimPop,
                    t1.duration_since(t).as_nanos() as u64,
                    a1.since(a),
                );
                (t, a) = (t1, a1);
            }
        }
        if slice < sc.slices {
            rep.probe_point();
        }
    }
    rep.probe_point();
    let end = Instant::now();
    if let Some(l) = ledger.as_mut() {
        l.finish(end);
    }

    // One NodeUp, `beats` heartbeats of 1 timer + FANOUT deliveries each,
    // per endsystem; watchdogs never fire except the last one armed,
    // which is cancelled by the final beat.
    let expected = n as u64 * (1 + sc.beats * (1 + u64::from(FANOUT)));
    let mut violations = Vec::new();
    if events != expected {
        violations.push(format!(
            "engine_only handled {events} events, expected {expected}"
        ));
    }
    let mut out = Outcome::blank(n, rep.setup, rss_after_setup_mb);
    out.run_s = rep.run_seconds(end);
    out.slice_s = rep.slice_s();
    out.events = events;
    out.messages = eng.messages_sent;
    out.violations = violations;
    if rep.traced {
        out.heap_after_run = alloc::live_bytes();
    }
    out.ledger = ledger;
    out.take_report(&eng.finish());
    out
}
