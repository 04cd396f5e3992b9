//! Wrappers that add child spans at two public trait seams. Only the
//! traced run constructs them; the untraced run drives the bare
//! `LiveTables`/`Precomputed`/`FedShard`, so it pays nothing for them.

use std::cell::Cell;
use std::time::Instant;

use seaweed_core::{DataProvider, FedCtl, FedShard, SeaweedEngine, SeaweedMsg};
use seaweed_overlay::OverlayMsg;
use seaweed_sim::{Event, Outbox, PartitionApp};
use seaweed_store::{Aggregate, BoundQuery, StoreError};
use seaweed_types::Time;

use crate::alloc;
use crate::classify::classify;
use crate::ledger::{Ledger, Row};

/// Store spans recorded while one event was being dispatched.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreSpans {
    pub execute: Row,
    pub estimate: Row,
}

impl StoreSpans {
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.execute.self_ns + self.estimate.self_ns
    }

    #[must_use]
    pub fn total_counts(&self) -> alloc::Counts {
        alloc::Counts {
            allocs: self.execute.allocs + self.estimate.allocs,
            bytes: self.execute.alloc_bytes + self.estimate.alloc_bytes,
        }
    }
}

/// A [`DataProvider`] that records `store.execute` / `store.estimate`
/// child spans around the inner provider's scans and estimates. The
/// O(1) accessors (`summary_wire_size`, `scan_cost`) are passed through
/// untimed: a clock pair would cost more than they do.
#[derive(Debug)]
pub struct TimedProvider<P> {
    inner: P,
    spans: Cell<StoreSpans>,
}

impl<P> TimedProvider<P> {
    pub fn new(inner: P) -> Self {
        TimedProvider {
            inner,
            spans: Cell::new(StoreSpans::default()),
        }
    }

    /// The spans recorded since the last call; the drive loop takes
    /// them after each dispatch and subtracts them from the parent.
    pub fn take_spans(&self) -> StoreSpans {
        self.spans.take()
    }

    fn timed<T>(&self, pick: fn(&mut StoreSpans) -> &mut Row, f: impl FnOnce(&P) -> T) -> T {
        let a0 = alloc::thread_counts();
        let t0 = Instant::now();
        let out = f(&self.inner);
        let ns = t0.elapsed().as_nanos() as u64;
        let mut s = self.spans.get();
        pick(&mut s).add(ns, alloc::thread_counts().since(a0));
        self.spans.set(s);
        out
    }
}

impl<P: DataProvider> DataProvider for TimedProvider<P> {
    fn summary_wire_size(&self, node: usize) -> u32 {
        self.inner.summary_wire_size(node)
    }

    fn estimate_rows(&self, node: usize, query: &BoundQuery) -> f64 {
        self.timed(|s| &mut s.estimate, |p| p.estimate_rows(node, query))
    }

    fn execute(&self, node: usize, query: &BoundQuery) -> Result<Aggregate, StoreError> {
        self.timed(|s| &mut s.execute, |p| p.execute(node, query))
    }

    fn exact_rows(&self, node: usize, query: &BoundQuery) -> u64 {
        self.inner.exact_rows(node, query)
    }

    fn scan_cost(&self, node: usize) -> u64 {
        self.inner.scan_cost(node)
    }

    fn execute_many(
        &self,
        node: usize,
        queries: &[&BoundQuery],
    ) -> Vec<Result<Aggregate, StoreError>> {
        self.timed(|s| &mut s.execute, |p| p.execute_many(node, queries))
    }
}

/// A federation shard that classifies and times every dispatched event.
/// What the executor does between dispatches (window bookkeeping, inbox
/// drains, the barrier, the engine's queue pop — all inside
/// `run_partitioned`) is the remainder, charged to `sim.exec` by the
/// caller once the run's wall time is known.
#[derive(Debug)]
pub struct TimedShard {
    pub inner: FedShard,
    pub ledger: Ledger,
    /// Host ns spent inside `dispatch`/`on_ctl`.
    pub busy_ns: u64,
}

impl TimedShard {
    #[must_use]
    pub fn new(inner: FedShard, epoch: Instant) -> Self {
        TimedShard {
            inner,
            ledger: Ledger::new(epoch),
            busy_ns: 0,
        }
    }
}

type Msg = OverlayMsg<SeaweedMsg>;

impl PartitionApp<Msg> for TimedShard {
    type Ctl = FedCtl;

    fn dispatch(&mut self, eng: &mut SeaweedEngine, ev: Event<Msg>, out: &mut Outbox<Msg, FedCtl>) {
        let a0 = alloc::thread_counts();
        let t0 = Instant::now();
        self.ledger.roll(eng.now().hours_since_epoch(), t0);
        let overlay = &self.inner.sw.overlay;
        let class = classify(&ev, |key, to| overlay.oracle_root(key) == Some(to));
        self.inner.dispatch(eng, ev, out);
        let ns = t0.elapsed().as_nanos() as u64;
        self.busy_ns += ns;
        self.ledger.add(class, ns, alloc::thread_counts().since(a0));
    }

    fn on_ctl(
        &mut self,
        eng: &mut SeaweedEngine,
        at: Time,
        from_part: u32,
        ctl: FedCtl,
        out: &mut Outbox<Msg, FedCtl>,
    ) {
        // Two control payloads per shard per run: left in `sim.exec`.
        self.inner.on_ctl(eng, at, from_part, ctl, out);
    }
}
