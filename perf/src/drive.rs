//! The benchmark's own event loop over a full Seaweed stack — the
//! `scale02_farsite` loop shape: pop an event, dispatch it. The traced
//! variant brackets the two calls with clock and allocation snapshots
//! and charges each interval to a ledger row, so consecutive intervals
//! tile the loop and the ledger closes by construction.

use std::time::Instant;

use seaweed_core::{DataProvider, LiveTables, Precomputed, Seaweed, SeaweedEngine};
use seaweed_types::Time;

use crate::alloc;
use crate::classify::{classify, Class};
use crate::ledger::Ledger;
use crate::stats::self_time;
use crate::timed::{StoreSpans, TimedProvider};

/// A provider the drive loop can ask for the store spans of the last
/// dispatch. Bare providers record none.
pub trait StoreProbe: DataProvider {
    fn take_spans(&self) -> StoreSpans {
        StoreSpans::default()
    }
}

impl StoreProbe for LiveTables {}
impl StoreProbe for Precomputed {}
impl<P: DataProvider> StoreProbe for TimedProvider<P> {
    fn take_spans(&self) -> StoreSpans {
        TimedProvider::take_spans(self)
    }
}

/// Runs the stack until simulated time `until`; returns events handled.
pub fn drive<P: StoreProbe>(
    sw: &mut Seaweed<P>,
    eng: &mut SeaweedEngine,
    until: Time,
    ledger: Option<&mut Ledger>,
) -> u64 {
    let Some(ledger) = ledger else {
        let mut events = 0;
        while let Some((_, ev)) = eng.next_event_before(until) {
            events += 1;
            sw.dispatch(eng, ev);
        }
        return events;
    };
    let mut events = 0;
    let mut t = Instant::now();
    let mut a = alloc::thread_counts();
    loop {
        let next = eng.next_event_before(until);
        let t_pop = Instant::now();
        let a_pop = alloc::thread_counts();
        ledger.add(
            Class::SimPop,
            t_pop.duration_since(t).as_nanos() as u64,
            a_pop.since(a),
        );
        let Some((at, ev)) = next else {
            return events;
        };
        events += 1;
        ledger.roll(at.hours_since_epoch(), t_pop);
        let overlay = &sw.overlay;
        let class = classify(&ev, |key, to| overlay.oracle_root(key) == Some(to));
        sw.dispatch(eng, ev);
        t = Instant::now();
        a = alloc::thread_counts();
        let span_ns = t.duration_since(t_pop).as_nanos() as u64;
        charge(
            ledger,
            class,
            span_ns,
            a.since(a_pop),
            sw.provider.take_spans(),
        );
    }
}

/// Charges a span to `class` and the store spans recorded inside it to
/// the store classes; the span keeps its self time and own allocations.
fn charge(ledger: &mut Ledger, class: Class, ns: u64, counts: alloc::Counts, store: StoreSpans) {
    let store_counts = store.total_counts();
    ledger.add(
        class,
        self_time(ns, store.total_ns()),
        alloc::Counts {
            allocs: counts.allocs - store_counts.allocs,
            bytes: counts.bytes - store_counts.bytes,
        },
    );
    ledger.add_row(Class::StoreExecute, &store.execute);
    ledger.add_row(Class::StoreEstimate, &store.estimate);
}

/// Runs `f` — a call into the stack made between events, such as a query
/// injection — and, in a traced run, charges it to `class` so that the
/// ledger still covers the whole timed phase.
pub fn charged<P: StoreProbe, T>(
    sw: &mut Seaweed<P>,
    ledger: Option<&mut Ledger>,
    class: Class,
    f: impl FnOnce(&mut Seaweed<P>) -> T,
) -> T {
    let Some(ledger) = ledger else {
        return f(sw);
    };
    let a0 = alloc::thread_counts();
    let t0 = Instant::now();
    let out = f(sw);
    let ns = t0.elapsed().as_nanos() as u64;
    let counts = alloc::thread_counts().since(a0);
    charge(ledger, class, ns, counts, sw.provider.take_spans());
    out
}
