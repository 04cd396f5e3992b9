//! The discrete-event engine.
//!
//! The engine owns the clock, the event queue, node liveness, the topology
//! and the bandwidth recorder. The *application* (Pastry + Seaweed stacked
//! per node) owns all protocol state and drives the loop:
//!
//! ```ignore
//! while let Some((now, ev)) = engine.next_event_before(horizon) {
//!     match ev {
//!         Event::Message { from, to, payload } => app.on_message(&mut engine, ...),
//!         Event::Timer { node, tag } => app.on_timer(&mut engine, ...),
//!         Event::NodeUp { node } => app.on_up(&mut engine, node),
//!         Event::NodeDown { node } => app.on_down(&mut engine, node),
//!     }
//! }
//! ```
//!
//! Determinism: events at equal times are delivered in the order they were
//! scheduled (a monotone sequence number breaks ties), and all randomness
//! (message loss) comes from a seeded RNG.
//!
//! Every scheduled event is parked once in a free-listed slab and stays
//! put until it is delivered; what the queue orders is a 24-byte key
//! `(time, seq, slab index)`, in a hierarchical timer wheel: O(1)
//! schedule and cancel, no comparison sorting, delivery in `(time, seq)`
//! order (`tests/queue_model.rs` holds the queue to a `BTreeMap` model
//! of that order, operation by operation).
//! Cancellation unparks the event and tombstones its index in a bitmap;
//! the index is recycled only when the wheel next meets the dead key
//! and drops it, so a queued key always names its own event.
//!
//! Timers are first-class cancellable: [`Engine::set_timer`] returns a
//! [`TimerHandle`], [`Engine::cancel_timer`] disarms it, and every timer a
//! node armed with `set_timer` is cancelled automatically when the node
//! goes down — protocol code no longer needs incarnation counters to
//! suppress timers leaking across availability sessions. Bookkeeping
//! timers that must survive churn (e.g. a query's TTL at its origin) use
//! [`Engine::set_detached_timer`].

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seaweed_types::{Duration, Time};

use crate::bandwidth::{BandwidthRecorder, BandwidthReport, DropStats, TrafficClass, NUM_CLASSES};
use crate::faults::{FaultInjector, FaultPlan, LinkEffect};
use crate::metrics::MetricsRegistry;
use crate::topology::Topology;
use crate::trace::{DropCause, TraceConfig, TraceEvent, Tracer};

/// Dense index of an endsystem in the simulation (not its Pastry id).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeIdx(pub u32);

impl NodeIdx {
    #[must_use]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A message payload travelling through the engine: either owned by the
/// single in-flight copy, or shared (`Rc`-backed) between several —
/// [`Engine::multicast`] and fault duplication hand every queued copy the
/// same allocation instead of deep-cloning per destination. The DES is
/// single-threaded (`clippy.toml` bans threads), so `Rc` suffices.
///
/// The envelope `Deref`s to the payload for reads and prints as it.
/// Consumers that need ownership call [`Payload::into_owned`], which
/// only clones when other in-flight copies still share the allocation.
pub enum Payload<M> {
    /// The only copy; moving it out is free.
    Owned(M),
    /// One of several copies sharing an allocation.
    Shared(Rc<M>),
}

thread_local! {
    /// Deep clones taken by the [`Payload::into_owned`] fallback when the
    /// allocation was still shared. The DES is single-threaded and
    /// `into_owned` has no engine handle, so a thread-local is
    /// the one place this can be counted; it accumulates monotonically
    /// across every engine on the thread.
    static PAYLOAD_FALLBACK_CLONES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Running count (this thread) of deep clones the [`Payload::into_owned`]
/// fallback has taken — each one is a fan-out copy consumed by value while
/// sibling copies were still queued. Single-destination sends always carry
/// [`Payload::Owned`], so this counts only genuine shared-consumption.
#[must_use]
pub fn payload_fallback_clones() -> u64 {
    PAYLOAD_FALLBACK_CLONES.with(std::cell::Cell::get)
}

thread_local! {
    /// Deep clones taken by [`Payload::into_owned_remote`] when handing a
    /// still-shared payload across a partition boundary. Cross-partition
    /// envelopes must own their payload (`Rc` cannot cross threads), so
    /// these clones are the structural price of a partition cut — counted
    /// separately from [`PAYLOAD_FALLBACK_CLONES`] so intra-partition
    /// fan-out regressions stay visible underneath it.
    static PAYLOAD_CROSS_PARTITION_CLONES: std::cell::Cell<u64> =
        const { std::cell::Cell::new(0) };
}

/// Running count (this thread) of deep clones taken to move a shared
/// payload across a partition boundary. Zero in any single-partition run;
/// under [`crate::exec`] it measures how much fan-out sharing the
/// partition cut forfeits.
#[must_use]
pub fn payload_cross_partition_clones() -> u64 {
    PAYLOAD_CROSS_PARTITION_CLONES.with(std::cell::Cell::get)
}

impl<M> Payload<M> {
    /// Extracts the payload, cloning only if the allocation is still
    /// shared with other queued copies (the last copy out is free).
    #[must_use]
    pub fn into_owned(self) -> M
    where
        M: Clone,
    {
        match self {
            Payload::Owned(m) => m,
            Payload::Shared(rc) => Rc::try_unwrap(rc).unwrap_or_else(|rc| {
                PAYLOAD_FALLBACK_CLONES.with(|c| c.set(c.get() + 1));
                (*rc).clone()
            }),
        }
    }

    /// Extracts the payload for a cross-partition send. Identical to
    /// [`Payload::into_owned`] except that a forced deep clone is counted
    /// in [`payload_cross_partition_clones`] instead of the fan-out
    /// fallback counter: crossing a thread boundary *requires* ownership,
    /// so the clone is a property of the partition cut, not a sharing
    /// regression.
    #[must_use]
    pub fn into_owned_remote(self) -> M
    where
        M: Clone,
    {
        match self {
            Payload::Owned(m) => m,
            Payload::Shared(rc) => Rc::try_unwrap(rc).unwrap_or_else(|rc| {
                PAYLOAD_CROSS_PARTITION_CLONES.with(|c| c.set(c.get() + 1));
                (*rc).clone()
            }),
        }
    }

    /// Converts into the shared representation without touching the
    /// payload itself (an owned payload is boxed into a fresh `Rc`).
    #[must_use]
    pub fn into_rc(self) -> Rc<M> {
        match self {
            Payload::Owned(m) => Rc::new(m),
            Payload::Shared(rc) => rc,
        }
    }
}

impl<M> std::ops::Deref for Payload<M> {
    type Target = M;

    fn deref(&self) -> &M {
        match self {
            Payload::Owned(m) => m,
            Payload::Shared(rc) => rc,
        }
    }
}

/// Prints exactly as the inner payload would.
impl<M: std::fmt::Debug> std::fmt::Debug for Payload<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// An event delivered to the application.
#[derive(Debug)]
pub enum Event<M> {
    /// A network message arrived at `to`. The payload envelope is
    /// transparent for reads ([`Payload`] derefs to `M`); call
    /// [`Payload::into_owned`] to take ownership.
    Message {
        from: NodeIdx,
        to: NodeIdx,
        payload: Payload<M>,
    },
    /// A timer fired. `tag` is whatever was passed to
    /// [`Engine::set_timer`] / [`Engine::set_detached_timer`]. A regular
    /// timer only fires while its node is up and is cancelled when the
    /// node goes down, so a fired timer is never stale.
    Timer { node: NodeIdx, tag: u64 },
    /// `node` just became available (liveness already updated).
    NodeUp { node: NodeIdx },
    /// `node` just became unavailable (liveness already updated; its
    /// queued messages are dropped on delivery and its regular timers
    /// have been cancelled).
    NodeDown { node: NodeIdx },
    /// `node` just crashed with amnesia: it is down (same engine
    /// semantics as [`Event::NodeDown`]) and the application must wipe
    /// its soft state — when it comes back up it remembers nothing it
    /// had not persisted. Injected by a [`FaultPlan`].
    NodeCrash { node: NodeIdx },
    /// Fault-plan partition `partition` just came into force: its member
    /// set and the rest of the network are mutually unreachable (sends
    /// across the cut are dropped) until the matching
    /// [`Event::PartitionEnd`].
    PartitionStart { partition: u32 },
    /// Fault-plan partition `partition` just healed.
    PartitionEnd { partition: u32 },
}

enum Pending<M> {
    Message {
        from: NodeIdx,
        to: NodeIdx,
        payload: Payload<M>,
        size: u32,
        class: TrafficClass,
    },
    Timer {
        node: NodeIdx,
        tag: u64,
        /// Fire time, kept beside the key's copy so a node-down sweep
        /// can trace the cancellation without finding the key.
        at: Time,
        /// Not tied to `node`'s liveness: survives its churn and fires
        /// regardless; otherwise node-down disarms the timer.
        detached: bool,
        /// Position in `Engine::armed[node]`; unused for detached timers.
        pos: u32,
    },
    NodeUp {
        node: NodeIdx,
    },
    NodeDown {
        node: NodeIdx,
    },
    NodeCrash {
        node: NodeIdx,
    },
    PartitionStart {
        partition: u32,
    },
    PartitionEnd {
        partition: u32,
    },
}

/// An event parked in the slab: written once when it is scheduled, moved
/// out once when it is delivered or cancelled, never copied in between.
struct Parked<M> {
    /// Sequence number of the occupant — the generation a
    /// [`TimerHandle`] is checked against after the index is reused.
    seq: u64,
    pending: Pending<M>,
}

/// What the wheel orders, cascades and sorts: the `(at, seq)` delivery
/// key and the slab index of the parked event. The derived ordering is
/// `(at, seq)`; `seq` is unique, so `idx` never decides.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Key {
    at: Time,
    seq: u64,
    idx: u32,
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Seed for all engine-internal randomness (message loss).
    pub seed: u64,
    /// Uniform probability that any network message is lost in flight.
    /// MSPastry is evaluated in the paper with rates up to 5%.
    pub loss_rate: f64,
    /// Collect per-(node,hour) bandwidth samples for CDFs (Figure 9(b)).
    pub collect_cdf: bool,
    /// Optional deterministic fault schedule (partitions, link
    /// degradation, crash-amnesia, correlated outages, dup/reorder).
    /// `None` injects nothing and changes nothing.
    pub faults: Option<FaultPlan>,
    /// Optional event tracing (see [`crate::trace`]). Tracing is purely
    /// observational — it cannot perturb event order; `None` is the off
    /// switch.
    pub trace: Option<TraceConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            loss_rate: 0.0,
            collect_cdf: false,
            faults: None,
            trace: None,
        }
    }
}

// ---------------------------------------------------------------- indices

/// Lifecycle of slab indices. An index is *live* from `push` until its
/// event is delivered, *tombstoned* from a cancellation until its key
/// physically leaves the wheel, and *free*
/// otherwise — so `live + tombstones + free.len()` is the slab length and
/// an index is never handed out again while a key still names it.
#[derive(Default)]
struct Indices {
    /// Bit `i` set: index `i` is tombstoned. One bit per slab entry, so
    /// the wheel's liveness test stays in cache where the 24-byte
    /// keys are and never touches the slab.
    dead: Vec<u64>,
    free: Vec<u32>,
    live: usize,
    tombstones: usize,
}

impl Indices {
    /// Tombstones a live index whose key is still queued.
    fn bury(&mut self, idx: u32) {
        self.dead[idx as usize >> 6] |= 1u64 << (idx & 63);
        self.live -= 1;
        self.tombstones += 1;
    }

    /// For a key that is physically leaving the wheel: if its index
    /// is tombstoned, recycles the index and returns true (the caller
    /// drops the key).
    #[inline]
    fn reap(&mut self, idx: u32) -> bool {
        if self.tombstones == 0 {
            return false;
        }
        let (word, bit) = (idx as usize >> 6, 1u64 << (idx & 63));
        if self.dead[word] & bit == 0 {
            return false;
        }
        self.dead[word] &= !bit;
        self.tombstones -= 1;
        self.free.push(idx);
        true
    }

    /// Drops tombstoned keys from one wheel slot.
    fn purge(&mut self, slot: &mut Vec<Key>) {
        if self.tombstones != 0 {
            slot.retain(|k| !self.reap(k.idx));
        }
    }
}

// ------------------------------------------------------------------ wheel

/// RNG stream constant for the engine's own draws — loss, duplication,
/// latency jitter (registered in lint.toml `[[stream]]`).
const ENGINE_STREAM: u64 = 0xe791_e5ee_d000_0001;

const LEVEL_BITS: u32 = 6;
const SLOTS: usize = 1 << LEVEL_BITS; // 64
/// 11 levels × 6 bits = 66 bits, covering the full µs-time range.
const LEVELS: usize = 11;

/// A hierarchical timing wheel over microsecond timestamps.
///
/// Level `l` has 64 slots of width `64^l` µs. A key lives at the highest
/// level where its timestamp differs from the cursor — i.e. slot index
/// `(at >> 6l) & 63` at level `l = msb(at ^ cursor) / 6` — and cascades
/// toward level 0 as the cursor approaches it. A level-0 slot within the
/// cursor's 64 µs window holds exactly one timestamp, so draining a slot
/// and sorting it by sequence number yields the global `(time, seq)`
/// delivery order.
struct TimerWheel {
    /// Time of the most recently drained slot; all stored keys have
    /// `at >= cursor`, and the cursor never passes a horizon the engine
    /// was asked to stop at (the clock rests there and later pushes are
    /// dated from it).
    cursor: u64,
    /// Per-level occupancy bitmaps (bit = slot non-empty).
    occ: [u64; LEVELS],
    /// `LEVELS × SLOTS` flattened slot vectors.
    slots: Vec<Vec<Key>>,
    /// Keys at exactly `cursor`, sorted by seq; `current[head..]` is
    /// still to be handed out.
    current: Vec<Key>,
    head: usize,
    /// Scratch buffer reused across cascades to avoid reallocating.
    cascade_buf: Vec<Key>,
}

impl TimerWheel {
    fn new() -> Self {
        TimerWheel {
            cursor: 0,
            occ: [0; LEVELS],
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            current: Vec::new(),
            head: 0,
            cascade_buf: Vec::new(),
        }
    }

    /// (level, slot) the key belongs to, relative to the current cursor.
    fn level_slot(&self, at: u64) -> (usize, usize) {
        let d = at ^ self.cursor;
        if d == 0 {
            (0, (at & 63) as usize)
        } else {
            let level = ((63 - d.leading_zeros()) / LEVEL_BITS) as usize;
            (level, ((at >> (LEVEL_BITS as usize * level)) & 63) as usize)
        }
    }

    fn push(&mut self, k: Key) {
        debug_assert!(k.at.0 >= self.cursor, "wheel insert into the past");
        let (l, s) = self.level_slot(k.at.0);
        self.slots[l * SLOTS + s].push(k);
        self.occ[l] |= 1u64 << s;
    }

    /// Occupied slots of level `l` strictly after the cursor's own.
    fn later_slots(&self, l: usize) -> u64 {
        let idx = ((self.cursor >> (LEVEL_BITS as usize * l)) & 63) as u32;
        if idx >= 63 {
            0
        } else {
            self.occ[l] & (!0u64 << (idx + 1))
        }
    }

    /// Start time of slot `s` at level `l` within the cursor's window.
    fn slot_start(&self, l: usize, s: u32) -> u64 {
        let parent_shift = LEVEL_BITS as usize * (l + 1);
        let base = if parent_shift >= 64 {
            0
        } else {
            self.cursor & !((1u64 << parent_shift) - 1)
        };
        base | (u64::from(s) << (LEVEL_BITS as usize * l))
    }

    /// Hands out the earliest live key at or before `horizon`, in one
    /// traversal. Tombstoned keys met on the way are reaped.
    fn pop_before(&mut self, ix: &mut Indices, horizon: u64) -> Option<Key> {
        loop {
            while let Some(&k) = self.current.get(self.head) {
                if k.at.0 > horizon {
                    return None;
                }
                self.head += 1;
                if !ix.reap(k.idx) {
                    return Some(k);
                }
            }
            self.current.clear();
            self.head = 0;
            if !self.advance(ix, horizon) {
                return None;
            }
        }
    }

    /// Moves the earliest occupied slot into `current` (sorted by seq),
    /// cascading higher levels as needed. Returns false — with the cursor
    /// still at or before `horizon` — when nothing starts by then.
    fn advance(&mut self, ix: &mut Indices, horizon: u64) -> bool {
        loop {
            // Level 0. The cursor's own slot is included: pushes at
            // exactly the current time land there after the slot was
            // drained, and must still be delivered.
            let m = self.occ[0] & (!0u64 << (self.cursor & 63));
            if m != 0 {
                let s = m.trailing_zeros();
                let t = (self.cursor & !63) | u64::from(s);
                if t > horizon {
                    return false;
                }
                self.cursor = t;
                self.occ[0] &= !(1u64 << s);
                // `current` is empty here: trade buffers, copy nothing.
                std::mem::swap(&mut self.current, &mut self.slots[s as usize]);
                debug_assert!(self.current.iter().all(|k| k.at.0 == t));
                if self.current.len() > 1 {
                    self.current.sort_unstable_by_key(|k| k.seq);
                }
                return true;
            }
            // Higher levels: jump to the next occupied slot strictly
            // after the cursor's position and cascade it down. Everything
            // in that slot lands at a lower level relative to the new
            // cursor (its slot base), so the search restarts at level 0.
            let Some((l, s)) = (1..LEVELS).find_map(|l| {
                let m = self.later_slots(l);
                (m != 0).then(|| (l, m.trailing_zeros()))
            }) else {
                return false;
            };
            // A lone key in the earliest occupied slot is the earliest key
            // of all: hand it out from where it is, skipping the levels
            // in between.
            let slot = l * SLOTS + s as usize;
            if let [k] = self.slots[slot][..] {
                if k.at.0 > horizon {
                    return false;
                }
                self.cursor = k.at.0;
                self.occ[l] &= !(1u64 << s);
                std::mem::swap(&mut self.current, &mut self.slots[slot]);
                return true;
            }
            let start = self.slot_start(l, s);
            if start > horizon {
                return false;
            }
            self.cursor = start;
            self.occ[l] &= !(1u64 << s);
            let mut buf = std::mem::take(&mut self.cascade_buf);
            std::mem::swap(&mut buf, &mut self.slots[slot]);
            for k in buf.drain(..) {
                if !ix.reap(k.idx) {
                    self.push(k);
                }
            }
            self.cascade_buf = buf;
        }
    }

    /// Timestamp of the earliest live key, without advancing the cursor.
    /// Purges tombstones from the slots it inspects so the reported time
    /// is exact.
    fn peek_at(&mut self, ix: &mut Indices) -> Option<Time> {
        while let Some(&k) = self.current.get(self.head) {
            if !ix.reap(k.idx) {
                return Some(k.at);
            }
            self.head += 1;
        }
        'restart: loop {
            if ix.live == 0 {
                return None;
            }
            let mut m = self.occ[0] & (!0u64 << (self.cursor & 63));
            while m != 0 {
                let s = m.trailing_zeros();
                let slot = &mut self.slots[s as usize];
                ix.purge(slot);
                if let Some(k) = slot.first() {
                    return Some(k.at);
                }
                self.occ[0] &= !(1u64 << s);
                m &= !(1u64 << s);
            }
            for l in 1..LEVELS {
                let m = self.later_slots(l);
                if m != 0 {
                    let s = m.trailing_zeros() as usize;
                    let slot = &mut self.slots[l * SLOTS + s];
                    ix.purge(slot);
                    if slot.is_empty() {
                        self.occ[l] &= !(1u64 << s);
                        continue 'restart;
                    }
                    // The slot spans 64^l µs; its earliest key is the min.
                    return slot.iter().map(|k| k.at).min();
                }
            }
            debug_assert!(false, "live > 0 but no occupied slot");
            return None;
        }
    }
}

// ------------------------------------------------------------------ queue

/// The event queue: one payload slab plus the wheel over 24-byte keys.
struct EventQueue<M> {
    /// `slab[key.idx]` is the event a queued key stands for. An entry is
    /// `None` while its index is free or tombstoned.
    slab: Vec<Option<Parked<M>>>,
    ix: Indices,
    wheel: TimerWheel,
}

impl<M> EventQueue<M> {
    fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            ix: Indices::default(),
            wheel: TimerWheel::new(),
        }
    }

    /// Parks `pending` and queues its key; returns the slab index.
    fn push(&mut self, at: Time, seq: u64, pending: Pending<M>) -> u32 {
        let parked = Some(Parked { seq, pending });
        let idx = if let Some(idx) = self.ix.free.pop() {
            debug_assert!(self.slab[idx as usize].is_none(), "free index occupied");
            self.slab[idx as usize] = parked;
            idx
        } else {
            let idx = u32::try_from(self.slab.len()).expect("slab index fits u32");
            self.slab.push(parked);
            if self.slab.len() > self.ix.dead.len() * 64 {
                self.ix.dead.push(0);
            }
            idx
        };
        self.ix.live += 1;
        self.wheel.push(Key { at, seq, idx });
        idx
    }

    /// Removes and returns the earliest live event at or before
    /// `horizon`; its index is free again on return.
    fn pop_before(&mut self, horizon: Time) -> Option<(Key, Pending<M>)> {
        let key = self.wheel.pop_before(&mut self.ix, horizon.0)?;
        let parked = self.slab[key.idx as usize]
            .take()
            .expect("a live key names a parked event");
        debug_assert_eq!(parked.seq, key.seq, "slab index reused under a queued key");
        self.ix.live -= 1;
        self.ix.free.push(key.idx);
        Some((key, parked.pending))
    }

    fn peek_at(&mut self) -> Option<Time> {
        self.wheel.peek_at(&mut self.ix)
    }

    /// Unparks the event at `idx` if it is still the one numbered `seq`,
    /// leaving a tombstone for the wheel to reap when it next meets
    /// the key. `None` for a stale `(idx, seq)`: delivered, cancelled, or
    /// the index since reused by a later event.
    fn cancel(&mut self, idx: u32, seq: u64) -> Option<Pending<M>> {
        let slot = self.slab.get_mut(idx as usize)?;
        if slot.as_ref()?.seq != seq {
            return None;
        }
        let parked = slot.take()?;
        self.ix.bury(idx);
        Some(parked.pending)
    }
}

// ----------------------------------------------------------------- engine

/// What the network does to a message that survives its send instant.
struct Flight {
    /// Link-degradation latency multiplier; 1.0 outside every window.
    latency_mult: f64,
    /// Reordering jitter of the message, and of its second copy when the
    /// fault plan duplicates it.
    jitter: Duration,
    dup_jitter: Option<Duration>,
}

/// Handle to a pending timer, returned by [`Engine::set_timer`] and
/// [`Engine::set_detached_timer`]. Cancelling a handle whose timer has
/// already fired or been cancelled is a harmless no-op.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimerHandle {
    node: NodeIdx,
    /// Slab index the timer was parked at, and the sequence number that
    /// tells this timer from a later occupant of the same index.
    idx: u32,
    seq: u64,
    at: Time,
}

impl TimerHandle {
    /// The node the timer was armed for.
    #[must_use]
    pub fn node(self) -> NodeIdx {
        self.node
    }

    /// Absolute fire time.
    #[must_use]
    pub fn fires_at(self) -> Time {
        self.at
    }
}

/// The discrete-event engine. `M` is the application's message payload.
pub struct Engine<M> {
    now: Time,
    seq: u64,
    queue: EventQueue<M>,
    topo: Box<dyn Topology>,
    up: Vec<bool>,
    /// Live node indices, ordered — keeps `num_up`/`up_nodes` O(live)
    /// instead of scanning every endsystem.
    live: BTreeSet<u32>,
    /// Per-node slab indices of the armed liveness-tied timers (detached
    /// ones are not swept), in no particular order —
    /// each timer's entry records its own position.
    armed: Vec<Vec<u32>>,
    recorder: BandwidthRecorder,
    rng: StdRng,
    loss_rate: f64,
    /// Fault-plan runtime, present only when [`SimConfig::faults`] was
    /// set. Every `send()` and node transition consults it.
    faults: Option<FaultInjector>,
    /// Event tracer, present only when [`SimConfig::trace`] was set.
    tracer: Option<Tracer>,
    /// Count of messages dropped because the destination was down.
    pub dropped_dest_down: u64,
    /// Count of messages lost to simulated (uniform random) network loss.
    pub dropped_loss: u64,
    /// Count of messages dropped at a fault-plan partition cut.
    pub dropped_partition: u64,
    /// Count of messages dropped by a fault-plan link-degradation window.
    pub dropped_link_fault: u64,
    /// Count of extra copies delivered by fault-plan duplication.
    pub messages_duplicated: u64,
    /// Drops from *all* causes, bucketed by traffic class.
    pub drops_by_class: [u64; NUM_CLASSES],
    /// Total messages sent.
    pub messages_sent: u64,
    /// Timers disarmed before firing (explicitly or by node-down).
    pub timers_cancelled: u64,
    /// Events whose requested time lay in the past and were clamped to
    /// the current clock.
    pub clamped_to_now: u64,
    /// Application-level occurrence counters recorded through
    /// [`Engine::record_app_event`], keyed by the caller's event kind.
    /// Surfaced verbatim in [`Engine::metrics`].
    app_events: BTreeMap<&'static str, u64>,
}

/// Manual impl: `M` (the application payload) need not be `Debug`, and
/// the queue/topology internals are noise — summarize the run state.
impl<M> std::fmt::Debug for Engine<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("seq", &self.seq)
            .field("num_up", &self.live.len())
            .field("messages_sent", &self.messages_sent)
            .field("timers_cancelled", &self.timers_cancelled)
            .finish_non_exhaustive()
    }
}

impl<M> Engine<M> {
    /// Creates an engine over `topo`; all nodes start **down** — schedule
    /// [`Engine::schedule_up`] events (e.g. from an availability trace) to
    /// bring them up.
    #[must_use]
    pub fn new(topo: Box<dyn Topology>, config: SimConfig) -> Self {
        let n = topo.num_endsystems();
        let tracer = config.trace.as_ref().map(Tracer::new);
        let faults = config
            .faults
            .map(|plan| FaultInjector::new(plan, config.seed, n));
        let mut e = Engine {
            now: Time::ZERO,
            seq: 0,
            queue: EventQueue::new(),
            topo,
            up: vec![false; n],
            live: BTreeSet::new(),
            armed: vec![Vec::new(); n],
            recorder: BandwidthRecorder::new(n, config.collect_cdf),
            rng: StdRng::seed_from_u64(config.seed ^ ENGINE_STREAM),
            loss_rate: config.loss_rate,
            faults,
            tracer,
            dropped_dest_down: 0,
            dropped_loss: 0,
            dropped_partition: 0,
            dropped_link_fault: 0,
            messages_duplicated: 0,
            drops_by_class: [0; NUM_CLASSES],
            messages_sent: 0,
            timers_cancelled: 0,
            clamped_to_now: 0,
            app_events: BTreeMap::new(),
        };
        e.schedule_fault_plan();
        e
    }

    /// Enqueues every time-triggered entry of the installed fault plan:
    /// partition start/heal markers, amnesia crashes (with their
    /// rejoins), and correlated outage bursts. Runs once, at
    /// construction, so plan events occupy a deterministic prefix of the
    /// sequence-number space.
    fn schedule_fault_plan(&mut self) {
        // Temporarily take the injector so `self.push` (which needs
        // `&mut self`) can run while we iterate the plan — no clone of
        // the whole plan just to appease the borrow checker.
        let Some(inj) = self.faults.take() else {
            return;
        };
        {
            let plan = inj.plan();
            for (i, p) in plan.partitions.iter().enumerate() {
                let idx = u32::try_from(i).expect("partition count fits u32");
                self.push(p.from, Pending::PartitionStart { partition: idx });
                self.push(p.until, Pending::PartitionEnd { partition: idx });
            }
            for c in &plan.crashes {
                self.push(c.at, Pending::NodeCrash { node: c.node });
                self.push(c.at + c.rejoin_after, Pending::NodeUp { node: c.node });
            }
            for o in &plan.outages {
                for &m in &o.members {
                    let node = NodeIdx(m);
                    if o.amnesia {
                        self.push(o.down_at, Pending::NodeCrash { node });
                    } else {
                        self.push(o.down_at, Pending::NodeDown { node });
                    }
                    self.push(o.up_at, Pending::NodeUp { node });
                }
            }
        }
        self.faults = Some(inj);
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of endsystems in the simulation.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.up.len()
    }

    /// Is `node` currently available?
    #[must_use]
    pub fn is_up(&self, node: NodeIdx) -> bool {
        self.up[node.idx()]
    }

    /// Number of currently available endsystems.
    #[must_use]
    pub fn num_up(&self) -> usize {
        self.live.len()
    }

    /// Iterator over currently available endsystems, in ascending index
    /// order.
    pub fn up_nodes(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        self.live.iter().map(|&i| NodeIdx(i))
    }

    /// Records a trace event if tracing is active. The closure only runs
    /// in that case, so building the event costs nothing when tracing is
    /// configured off.
    #[inline]
    fn trace(&mut self, ev: impl FnOnce() -> TraceEvent) {
        if let Some(t) = &mut self.tracer {
            t.record(self.now, ev());
        }
    }

    /// Is a tracer attached and capturing?
    #[must_use]
    pub fn tracing_active(&self) -> bool {
        self.tracer.is_some()
    }

    /// The attached tracer, if tracing is active.
    #[must_use]
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Detaches and returns the tracer (e.g. to export its buffer before
    /// [`Engine::finish`] consumes the engine). Tracing stops.
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.tracer.take()
    }

    /// Records an application-level occurrence: bumps the `kind` counter
    /// (surfaced via [`Engine::metrics`]) and, when tracing is active,
    /// appends an [`TraceEvent::AppEvent`] record attributed to `node`.
    /// Purely observational — never perturbs the schedule.
    pub fn record_app_event(&mut self, node: NodeIdx, kind: &'static str, detail: u64) {
        *self.app_events.entry(kind).or_insert(0) += 1;
        self.trace(|| TraceEvent::AppEvent { node, kind, detail });
    }

    /// Clamps a request dated before the current clock to `now` (counted
    /// in [`Engine::clamped_to_now`]) so callers computing absolute times
    /// from stale state cannot corrupt the delivery order.
    fn clamp(&mut self, at: Time) -> Time {
        if at < self.now {
            self.clamped_to_now += 1;
            self.now
        } else {
            at
        }
    }

    /// Enqueues `pending` at `at`, clamped to the clock. Returns the
    /// entry's slab index and sequence number.
    fn push(&mut self, at: Time, pending: Pending<M>) -> (u32, u64) {
        let at = self.clamp(at);
        let seq = self.seq;
        self.seq += 1;
        (self.queue.push(at, seq, pending), seq)
    }

    /// Sends a network message. Transmission bandwidth is charged to
    /// `from` immediately; reception to `to` at delivery (if it is still
    /// up and the message survives loss). `size` is the wire size in
    /// bytes; `class` selects the accounting bucket.
    ///
    /// The installed fault plan (if any) is consulted in a fixed order:
    /// partition cut, link-degradation window (extra loss, then latency
    /// multiplier), base random loss, reordering jitter, duplication.
    /// Without a plan the behaviour — including the engine RNG's draw
    /// sequence — is identical to the fault-free engine.
    pub fn send(&mut self, from: NodeIdx, to: NodeIdx, payload: M, size: u32, class: TrafficClass) {
        self.send_envelope(from, to, Payload::Owned(payload), size, class);
    }

    /// Fans one payload out to every destination in `dests` (in slice
    /// order) with a single allocation shared by all queued copies.
    /// Equivalent — byte-for-byte, including RNG draw order, sequence
    /// numbers, traces and bandwidth accounting — to calling
    /// [`Engine::send`] once per destination with a fresh clone.
    pub fn multicast(
        &mut self,
        from: NodeIdx,
        dests: &[NodeIdx],
        payload: M,
        size: u32,
        class: TrafficClass,
    ) {
        // A single destination needs no sharing: hand over ownership so
        // the consumer's `into_owned` can never hit the clone fallback.
        if let [to] = dests {
            self.send_envelope(from, *to, Payload::Owned(payload), size, class);
            return;
        }
        debug_assert!(
            dests.len() != 1,
            "single-destination delivery must take the owned path"
        );
        let rc = Rc::new(payload);
        for &to in dests {
            self.send_envelope(from, to, Payload::Shared(Rc::clone(&rc)), size, class);
        }
    }

    fn send_envelope(
        &mut self,
        from: NodeIdx,
        to: NodeIdx,
        payload: Payload<M>,
        size: u32,
        class: TrafficClass,
    ) {
        self.messages_sent += 1;
        let Some(flight) = self.launch(from, to, size, class) else {
            return;
        };
        let base = self.topo.one_way(from, to);
        let latency = if flight.latency_mult == 1.0 {
            base
        } else {
            Duration::from_micros((base.as_micros() as f64 * flight.latency_mult).round() as u64)
        };
        let mut jitter = flight.jitter;
        let payload = if let Some(second) = flight.dup_jitter {
            // The duplicate shares the original's allocation — no deep
            // clone of the payload, only a second reference.
            let rc = payload.into_rc();
            self.push(
                self.now + latency + jitter,
                Pending::Message {
                    from,
                    to,
                    payload: Payload::Shared(Rc::clone(&rc)),
                    size,
                    class,
                },
            );
            jitter = second;
            Payload::Shared(rc)
        } else {
            payload
        };
        self.push(
            self.now + latency + jitter,
            Pending::Message {
                from,
                to,
                payload,
                size,
                class,
            },
        );
    }

    /// The send instant of one transmission, whether its delivery will
    /// be an event ([`Engine::send`]) or is accounted
    /// ([`Engine::send_accounted`]): the tx charge, the trace record and
    /// the network's verdict — partition cut, link-degradation window,
    /// base random loss, reordering jitter, duplication, consulted and
    /// drawn in that fixed order. `None`: dropped here, and counted.
    /// (Always inlined: left to the inliner, `engine_only_s` read 5–9%
    /// worse than with the send path in one function.)
    #[inline(always)]
    fn launch(
        &mut self,
        from: NodeIdx,
        to: NodeIdx,
        size: u32,
        class: TrafficClass,
    ) -> Option<Flight> {
        debug_assert!(self.up[from.idx()], "down node {from:?} tried to send");
        self.recorder.record_tx(self.now, from.idx(), class, size);
        self.trace(|| TraceEvent::MessageSend {
            from,
            to,
            size,
            class,
        });
        let mut flight = Flight {
            latency_mult: 1.0,
            jitter: Duration::ZERO,
            dup_jitter: None,
        };
        if let Some(inj) = &mut self.faults {
            if !inj.reachable(from, to) {
                self.dropped_partition += 1;
                self.drops_by_class[class as usize] += 1;
                self.trace(|| TraceEvent::MessageDrop {
                    from,
                    to,
                    class,
                    cause: DropCause::Partition,
                });
                return None;
            }
            let (za, zb) = (self.topo.zone_of(from), self.topo.zone_of(to));
            match inj.link_effect(self.now, za, zb) {
                LinkEffect::Drop => {
                    self.dropped_link_fault += 1;
                    self.drops_by_class[class as usize] += 1;
                    self.trace(|| TraceEvent::MessageDrop {
                        from,
                        to,
                        class,
                        cause: DropCause::LinkFault,
                    });
                    return None;
                }
                LinkEffect::Delay(m) => flight.latency_mult = m,
                LinkEffect::Pass => {}
            }
        }
        if self.loss_rate > 0.0 && self.rng.gen::<f64>() < self.loss_rate {
            self.dropped_loss += 1;
            self.drops_by_class[class as usize] += 1;
            self.trace(|| TraceEvent::MessageDrop {
                from,
                to,
                class,
                cause: DropCause::RandomLoss,
            });
            return None;
        }
        if let Some(inj) = &mut self.faults {
            flight.jitter = inj.reorder_jitter();
            if inj.duplicate() {
                flight.dup_jitter = Some(inj.reorder_jitter());
                self.messages_duplicated += 1;
                self.trace(|| TraceEvent::MessageDuplicate { from, to, class });
            }
        }
        Some(flight)
    }

    /// Sends a message whose delivery the *sender* knows would change
    /// nothing at `to` (which must be up), without scheduling it. The
    /// send instant is [`Engine::send`]'s to the last draw — tx charge,
    /// partition cut, link effect, loss, jitter and duplication draws,
    /// drop counters, trace — so the loss and jitter draws of every
    /// other message are what they would have been; what differs is
    /// that no delivery is parked and reception is charged now, once per
    /// copy the network would have delivered. Not counted in
    /// [`Engine::messages_sent`].
    pub fn send_accounted(&mut self, from: NodeIdx, to: NodeIdx, size: u32, class: TrafficClass) {
        debug_assert!(self.up[to.idx()], "accounted send to down node {to:?}");
        let Some(flight) = self.launch(from, to, size, class) else {
            return;
        };
        for _ in 0..=usize::from(flight.dup_jitter.is_some()) {
            self.recorder.record_rx(self.now, to.idx(), class, size);
            self.trace(|| TraceEvent::MessageDeliver {
                from,
                to,
                size,
                class,
            });
        }
    }

    /// Can `a` currently reach `b`, given the open fault-plan
    /// partitions? Always true without a plan. Liveness is *not* part of
    /// this check — an up-but-unreachable node is exactly the case
    /// recovery code must distinguish from a dead one.
    #[must_use]
    pub fn reachable(&self, a: NodeIdx, b: NodeIdx) -> bool {
        self.faults.as_ref().is_none_or(|f| f.reachable(a, b))
    }

    /// Member set of fault-plan partition `partition` (as announced by
    /// [`Event::PartitionStart`] / [`Event::PartitionEnd`]).
    #[must_use]
    pub fn partition_members(&self, partition: u32) -> Vec<NodeIdx> {
        self.faults.as_ref().map_or_else(Vec::new, |f| {
            f.plan().partitions[partition as usize]
                .members
                .iter()
                .map(|&m| NodeIdx(m))
                .collect()
        })
    }

    /// Arms a timer for `node`, firing `delay` from now with `tag`. The
    /// timer is cancelled automatically if `node` goes down first, so it
    /// can never fire into a later availability session.
    pub fn set_timer(&mut self, node: NodeIdx, delay: Duration, tag: u64) -> TimerHandle {
        self.arm_timer(node, delay, tag, false)
    }

    /// Arms a timer that is *not* tied to `node`'s liveness: it survives
    /// the node going down and fires regardless of its state. Use for
    /// bookkeeping deadlines (e.g. query TTLs) that must hold across
    /// churn; cancel explicitly via the returned handle if needed.
    pub fn set_detached_timer(&mut self, node: NodeIdx, delay: Duration, tag: u64) -> TimerHandle {
        self.arm_timer(node, delay, tag, true)
    }

    fn arm_timer(
        &mut self,
        node: NodeIdx,
        delay: Duration,
        tag: u64,
        detached: bool,
    ) -> TimerHandle {
        let at = self.clamp(self.now + delay);
        let pos = if detached {
            0
        } else {
            u32::try_from(self.armed[node.idx()].len()).expect("armed list fits u32")
        };
        let timer = Pending::Timer {
            node,
            tag,
            at,
            detached,
            pos,
        };
        let (idx, seq) = self.push(at, timer);
        if !detached {
            self.armed[node.idx()].push(idx);
        }
        self.trace(|| TraceEvent::TimerSet {
            node,
            tag,
            seq,
            at,
            detached,
        });
        TimerHandle { node, idx, seq, at }
    }

    /// Takes the liveness-tied timer at `pos` off `node`'s armed list.
    fn disarm(&mut self, node: NodeIdx, pos: u32) {
        let list = &mut self.armed[node.idx()];
        list.swap_remove(pos as usize);
        if let Some(&moved) = list.get(pos as usize) {
            match &mut self.queue.slab[moved as usize] {
                Some(Parked {
                    pending: Pending::Timer { pos: p, .. },
                    ..
                }) => *p = pos,
                _ => debug_assert!(false, "armed list names a non-timer"),
            }
        }
    }

    /// Disarms a pending timer. Returns whether it was still pending
    /// (false if it already fired or was cancelled — a safe no-op).
    pub fn cancel_timer(&mut self, h: TimerHandle) -> bool {
        let Some(Pending::Timer {
            node,
            detached,
            pos,
            ..
        }) = self.queue.cancel(h.idx, h.seq)
        else {
            return false;
        };
        debug_assert_eq!(node, h.node, "handle and timer disagree on the node");
        if !detached {
            self.disarm(node, pos);
        }
        self.timers_cancelled += 1;
        self.trace(|| TraceEvent::TimerCancel {
            node: h.node,
            seq: h.seq,
            at: h.at,
        });
        true
    }

    /// Schedules `node` to become available at `at` (absolute time).
    pub fn schedule_up(&mut self, at: Time, node: NodeIdx) {
        self.push(at, Pending::NodeUp { node });
    }

    /// Schedules `node` to become unavailable at `at` (absolute time).
    pub fn schedule_down(&mut self, at: Time, node: NodeIdx) {
        self.push(at, Pending::NodeDown { node });
    }

    /// Timestamp of the earliest pending entry, or `None` when the queue
    /// is empty. The partitioned executor ([`crate::exec`]) publishes
    /// this after each window to compute the global lower bound the next
    /// window may start from.
    /// (`&mut` because the wheel reaps cancelled entries lazily, as it
    /// meets them.)
    #[must_use]
    pub fn next_pending_at(&mut self) -> Option<Time> {
        self.queue.peek_at()
    }

    /// Injects a message that originated in *another* partition's engine,
    /// arriving at local node `to` at absolute time `at`. The sender's
    /// engine already charged transmission ([`Engine::charge_remote_tx`]);
    /// this engine charges reception at delivery, applying the usual
    /// destination-down check. The cross-partition link itself is
    /// modelled loss-free: loss, jitter and duplication were all resolved
    /// by the sending application against its own engine before the
    /// envelope was committed to the wire, keeping the RNG draw sequence
    /// of each partition self-contained.
    ///
    /// The delivered [`Event::Message`] carries `from == to` — the true
    /// source lives in a different index space and application payloads
    /// carry their own provenance. This also exempts the hop from this
    /// engine's partition-fault checks (`reachable(to, to)` is trivially
    /// true); intra-shard fault semantics are unaffected.
    pub fn accept_remote(
        &mut self,
        at: Time,
        to: NodeIdx,
        payload: M,
        size: u32,
        class: TrafficClass,
    ) {
        debug_assert!(
            at >= self.now,
            "conservative violation: remote arrival {at:?} before now {:?}",
            self.now
        );
        self.push(
            at,
            Pending::Message {
                from: to,
                to,
                payload: Payload::Owned(payload),
                size,
                class,
            },
        );
    }

    /// Charges transmission accounting for a cross-partition send to the
    /// local source node `from`, mirroring what [`Engine::send`] charges
    /// before handing a message to the network: one sent message and
    /// `size` bytes of `class` traffic. The destination partition's
    /// engine completes the accounting on delivery via
    /// [`Engine::accept_remote`].
    pub fn charge_remote_tx(&mut self, from: NodeIdx, size: u32, class: TrafficClass) {
        debug_assert!(self.up[from.idx()], "down node {from:?} tried to send");
        self.messages_sent += 1;
        self.recorder.record_tx(self.now, from.idx(), class, size);
        self.record_app_event(from, "sim.remote_tx", u64::from(size));
    }

    /// Pops and applies the next event at or before `horizon`, returning
    /// it for application-level dispatch. Returns `None` when the queue is
    /// exhausted or the next event lies beyond the horizon (the clock then
    /// advances to the horizon).
    pub fn next_event_before(&mut self, horizon: Time) -> Option<(Time, Event<M>)> {
        loop {
            let Some((q, pending)) = self.queue.pop_before(horizon) else {
                self.now = self.now.max(horizon);
                return None;
            };
            self.now = q.at;
            match pending {
                Pending::Message {
                    from,
                    to,
                    payload,
                    size,
                    class,
                } => {
                    if !self.up[to.idx()] {
                        self.dropped_dest_down += 1;
                        self.drops_by_class[class as usize] += 1;
                        self.trace(|| TraceEvent::MessageDrop {
                            from,
                            to,
                            class,
                            cause: DropCause::DestDown,
                        });
                        continue;
                    }
                    // A partition that opened while the message was in
                    // flight swallows it too.
                    if !self.reachable(from, to) {
                        self.dropped_partition += 1;
                        self.drops_by_class[class as usize] += 1;
                        self.trace(|| TraceEvent::MessageDrop {
                            from,
                            to,
                            class,
                            cause: DropCause::Partition,
                        });
                        continue;
                    }
                    self.recorder.record_rx(self.now, to.idx(), class, size);
                    self.trace(|| TraceEvent::MessageDeliver {
                        from,
                        to,
                        size,
                        class,
                    });
                    return Some((self.now, Event::Message { from, to, payload }));
                }
                Pending::Timer {
                    node,
                    tag,
                    detached,
                    pos,
                    ..
                } => {
                    if !detached {
                        self.disarm(node, pos);
                    }
                    // An auto timer armed for an already-down node (legal
                    // but unusual) is dropped at fire time.
                    if !detached && !self.up[node.idx()] {
                        self.trace(|| TraceEvent::TimerCancel {
                            node,
                            seq: q.seq,
                            at: q.at,
                        });
                        continue;
                    }
                    self.trace(|| TraceEvent::TimerFire {
                        node,
                        tag,
                        seq: q.seq,
                    });
                    return Some((self.now, Event::Timer { node, tag }));
                }
                Pending::NodeUp { node } => {
                    if self.up[node.idx()] {
                        continue; // duplicate up event; ignore
                    }
                    self.up[node.idx()] = true;
                    self.live.insert(node.0);
                    self.recorder.node_up(self.now, node.idx());
                    self.trace(|| TraceEvent::NodeUp { node });
                    return Some((self.now, Event::NodeUp { node }));
                }
                Pending::NodeDown { node } => {
                    if !self.up[node.idx()] {
                        continue;
                    }
                    self.up[node.idx()] = false;
                    self.live.remove(&node.0);
                    self.trace(|| TraceEvent::NodeDown { node });
                    self.auto_cancel_timers(node);
                    self.recorder.node_down(self.now, node.idx());
                    return Some((self.now, Event::NodeDown { node }));
                }
                Pending::NodeCrash { node } => {
                    // Engine-side, a crash is a down transition; the
                    // distinct event tells the application to wipe the
                    // node's soft state. Crashing an already-down node is
                    // a no-op, like a duplicate down.
                    if !self.up[node.idx()] {
                        continue;
                    }
                    self.up[node.idx()] = false;
                    self.live.remove(&node.0);
                    self.trace(|| TraceEvent::NodeCrash { node });
                    self.auto_cancel_timers(node);
                    self.recorder.node_down(self.now, node.idx());
                    return Some((self.now, Event::NodeCrash { node }));
                }
                Pending::PartitionStart { partition } => {
                    if let Some(inj) = &mut self.faults {
                        inj.partition_started(partition as usize);
                    }
                    self.trace(|| TraceEvent::PartitionStart { partition });
                    return Some((self.now, Event::PartitionStart { partition }));
                }
                Pending::PartitionEnd { partition } => {
                    if let Some(inj) = &mut self.faults {
                        inj.partition_ended(partition as usize);
                    }
                    self.trace(|| TraceEvent::PartitionEnd { partition });
                    return Some((self.now, Event::PartitionEnd { partition }));
                }
            }
        }
    }

    /// Drops every auto timer `node` still has pending — its next
    /// availability session starts with a clean slate.
    fn auto_cancel_timers(&mut self, node: NodeIdx) {
        // The list is in arming order scrambled by swap-removes; the only
        // order-sensitive output (the trace) is sorted by seq below.
        let collect = self.tracing_active();
        let mut cancelled_log: Vec<(u64, Time)> = Vec::new();
        let armed = std::mem::take(&mut self.armed[node.idx()]);
        self.timers_cancelled += armed.len() as u64;
        for idx in armed {
            let Some(Parked {
                seq,
                pending: Pending::Timer { at, .. },
            }) = self.queue.slab[idx as usize].take()
            else {
                debug_assert!(false, "armed list names a non-timer");
                continue;
            };
            self.queue.ix.bury(idx);
            if collect {
                cancelled_log.push((seq, at));
            }
        }
        cancelled_log.sort_unstable_by_key(|&(seq, _)| seq);
        for (seq, at) in cancelled_log {
            self.trace(|| TraceEvent::TimerCancel { node, seq, at });
        }
    }

    /// Charges `bytes` of transmitted overlay-maintenance traffic to
    /// `node` without scheduling a message — used for liveness probes
    /// whose only protocol effect (detecting a dead peer) the caller
    /// applies directly.
    pub fn record_probe(&mut self, node: NodeIdx, bytes: u32) {
        self.recorder
            .record_tx(self.now, node.idx(), TrafficClass::Overlay, bytes);
    }

    /// Charges `node` one side of an exchange — `tx` bytes sent, `rx`
    /// received — without scheduling its messages: for an exchange the
    /// caller knows changes no state at either end.
    pub fn record_exchange(&mut self, node: NodeIdx, class: TrafficClass, tx: u32, rx: u32) {
        self.recorder.record_tx(self.now, node.idx(), class, tx);
        self.recorder.record_rx(self.now, node.idx(), class, rx);
    }

    /// Registers standing (periodic, event-free) traffic for `node`; see
    /// [`BandwidthRecorder::set_standing`]. Used for strictly periodic
    /// protocol traffic (leafset heartbeats, a fully synced node's
    /// anti-entropy pulls) whose event-by-event simulation would swamp
    /// the queue without changing any decision.
    pub fn set_standing(&mut self, node: NodeIdx, class: TrafficClass, tx_rate: f32, rx_rate: f32) {
        self.recorder
            .set_standing(self.now, node.idx(), class, tx_rate, rx_rate);
    }

    /// The standing `(tx, rx)` rates currently registered for `node`.
    #[must_use]
    pub fn standing(&self, node: NodeIdx, class: TrafficClass) -> (f32, f32) {
        self.recorder.standing(node.idx(), class)
    }

    /// Per-cause drop statistics so far (also embedded in the final
    /// [`BandwidthReport`] by [`Engine::finish`]).
    #[must_use]
    pub fn drop_stats(&self) -> DropStats {
        DropStats {
            random_loss: self.dropped_loss,
            partition: self.dropped_partition,
            dest_down: self.dropped_dest_down,
            link_fault: self.dropped_link_fault,
            duplicated: self.messages_duplicated,
            by_class: self.drops_by_class,
        }
    }

    /// Snapshot of the engine's counters and gauges as a
    /// [`MetricsRegistry`] — the uniform surface for run summaries.
    /// Applications merge their own registries on top.
    #[must_use]
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.set_counter("sim.messages_sent", self.messages_sent);
        m.set_counter("sim.timers_cancelled", self.timers_cancelled);
        m.set_counter("sim.clamped_to_now", self.clamped_to_now);
        m.set_counter("sim.payload_fallback_clones", payload_fallback_clones());
        m.set_counter(
            "sim.payload_cross_partition_clones",
            payload_cross_partition_clones(),
        );
        m.record_drop_stats(&self.drop_stats());
        let totals = self.recorder.totals_tx();
        m.set_counter("sim.tx_bytes.overlay", totals[0]);
        m.set_counter("sim.tx_bytes.maintenance", totals[1]);
        m.set_counter("sim.tx_bytes.query", totals[2]);
        m.set_gauge("sim.nodes_up", self.num_up() as f64);
        m.set_gauge("sim.nodes_total", self.num_nodes() as f64);
        m.set_gauge("sim.queue.depth", self.queue.ix.live as f64);
        m.set_gauge("sim.queue.slab_high_water", self.queue.slab.len() as f64);
        m.set_gauge("sim.queue.tombstones", self.queue.ix.tombstones as f64);
        let armed: usize = self.armed.iter().map(Vec::len).sum();
        m.set_gauge("sim.queue.armed_timers", armed as f64);
        for (kind, count) in &self.app_events {
            m.set_counter(kind, *count);
        }
        if let Some(t) = &self.tracer {
            m.set_counter("sim.trace.recorded", t.recorded());
            m.set_counter("sim.trace.evicted", t.dropped_records());
        }
        m
    }

    /// Finishes the run, consuming the engine and yielding the bandwidth
    /// report (accounting closed at the final clock value).
    #[must_use]
    pub fn finish(self) -> BandwidthReport {
        let drops = self.drop_stats();
        let mut report = self.recorder.finish(self.now);
        report.drops = drops;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::UniformTopology;

    fn engine(n: usize, latency_ms: u64) -> Engine<&'static str> {
        Engine::new(
            Box::new(UniformTopology::new(n, Duration::from_millis(latency_ms))),
            SimConfig::default(),
        )
    }

    fn drain(e: &mut Engine<&'static str>, horizon: Time) -> Vec<(Time, String)> {
        let mut out = Vec::new();
        while let Some((t, ev)) = e.next_event_before(horizon) {
            out.push((t, format!("{ev:?}")));
        }
        out
    }

    #[test]
    fn message_latency_and_ordering() {
        let mut e = engine(3, 10);
        e.schedule_up(Time::ZERO, NodeIdx(0));
        e.schedule_up(Time::ZERO, NodeIdx(1));
        // Bring nodes up first.
        assert!(matches!(
            e.next_event_before(Time(1)),
            Some((_, Event::NodeUp { .. }))
        ));
        assert!(matches!(
            e.next_event_before(Time(1)),
            Some((_, Event::NodeUp { .. }))
        ));
        e.send(NodeIdx(0), NodeIdx(1), "hello", 100, TrafficClass::Query);
        let (t, ev) = e
            .next_event_before(Time::ZERO + Duration::from_secs(1))
            .unwrap();
        assert_eq!(t, Time::ZERO + Duration::from_millis(10));
        match ev {
            Event::Message { from, to, payload } => {
                assert_eq!(from, NodeIdx(0));
                assert_eq!(to, NodeIdx(1));
                assert_eq!(payload.into_owned(), "hello");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multicast_fallback_clone_is_metered_and_single_dest_is_free() {
        let mut e = engine(3, 0);
        for i in 0..3 {
            e.schedule_up(Time::ZERO, NodeIdx(i));
            let _ = e.next_event_before(Time(1));
        }
        let horizon = Time::ZERO + Duration::from_secs(1);

        // Single destination: the owned fast path, no fallback possible.
        let before = payload_fallback_clones();
        e.multicast(NodeIdx(0), &[NodeIdx(1)], "solo", 10, TrafficClass::Query);
        let (_, ev) = e.next_event_before(horizon).unwrap();
        let Event::Message { payload, .. } = ev else {
            panic!("expected message");
        };
        assert_eq!(payload.into_owned(), "solo");
        assert_eq!(payload_fallback_clones(), before);

        // Two destinations: the first copy consumed by value clones (its
        // sibling still holds the allocation); the last copy moves free.
        e.multicast(
            NodeIdx(0),
            &[NodeIdx(1), NodeIdx(2)],
            "pair",
            10,
            TrafficClass::Query,
        );
        for step in 1..=2u64 {
            let (_, ev) = e.next_event_before(horizon).unwrap();
            let Event::Message { payload, .. } = ev else {
                panic!("expected message");
            };
            assert_eq!(payload.into_owned(), "pair");
            assert_eq!(payload_fallback_clones(), before + 1, "step {step}");
        }
    }

    #[test]
    fn fifo_between_same_timestamp_events() {
        let mut e = engine(2, 0);
        e.schedule_up(Time::ZERO, NodeIdx(0));
        e.schedule_up(Time::ZERO, NodeIdx(1));
        let evs = drain(&mut e, Time(10));
        assert!(evs[0].1.contains("NodeUp { node: NodeIdx(0) }"));
        assert!(evs[1].1.contains("NodeUp { node: NodeIdx(1) }"));
    }

    #[test]
    fn message_to_down_node_is_dropped() {
        let mut e = engine(2, 10);
        e.schedule_up(Time::ZERO, NodeIdx(0));
        e.schedule_up(Time::ZERO, NodeIdx(1));
        e.schedule_down(Time(5_000), NodeIdx(1)); // down before delivery
        let _ = e.next_event_before(Time(1)); // up 0
        let _ = e.next_event_before(Time(1)); // up 1
        e.send(NodeIdx(0), NodeIdx(1), "m", 50, TrafficClass::Query);
        let evs = drain(&mut e, Time::ZERO + Duration::from_secs(1));
        // Only the NodeDown should surface; the message is swallowed.
        assert_eq!(evs.len(), 1, "{evs:?}");
        assert!(evs[0].1.contains("NodeDown"));
        assert_eq!(e.dropped_dest_down, 1);
    }

    #[test]
    fn timer_cancelled_when_node_goes_down() {
        let mut e = engine(1, 0);
        e.schedule_up(Time::ZERO, NodeIdx(0));
        let _ = e.next_event_before(Time(1));
        e.set_timer(NodeIdx(0), Duration::from_secs(10), 42);
        e.schedule_down(Time::ZERO + Duration::from_secs(5), NodeIdx(0));
        // Node comes back before the timer's original fire time; the
        // timer must NOT leak into the new session.
        e.schedule_up(Time::ZERO + Duration::from_secs(7), NodeIdx(0));
        let evs = drain(&mut e, Time::ZERO + Duration::from_secs(60));
        assert_eq!(evs.len(), 2, "{evs:?}");
        assert!(evs[0].1.contains("NodeDown"));
        assert!(evs[1].1.contains("NodeUp"));
        assert_eq!(e.timers_cancelled, 1);
    }

    #[test]
    fn detached_timer_survives_churn() {
        let mut e = engine(1, 0);
        e.schedule_up(Time::ZERO, NodeIdx(0));
        let _ = e.next_event_before(Time(1));
        e.set_detached_timer(NodeIdx(0), Duration::from_secs(10), 9);
        e.schedule_down(Time::ZERO + Duration::from_secs(5), NodeIdx(0));
        let evs = drain(&mut e, Time::ZERO + Duration::from_secs(60));
        assert_eq!(evs.len(), 2, "{evs:?}");
        assert!(evs[0].1.contains("NodeDown"));
        assert!(evs[1].1.contains("Timer"), "{evs:?}");
        assert_eq!(e.timers_cancelled, 0);
    }

    #[test]
    fn auto_timer_fires_and_a_later_one_dies_with_its_node() {
        let mut e = engine(1, 0);
        e.schedule_up(Time::ZERO, NodeIdx(0));
        let _ = e.next_event_before(Time(1));
        e.set_timer(NodeIdx(0), Duration::from_secs(1), 3);
        let (_, ev) = e
            .next_event_before(Time::ZERO + Duration::from_secs(2))
            .unwrap();
        assert!(matches!(
            ev,
            Event::Timer {
                node: NodeIdx(0),
                tag: 3
            }
        ));
        assert_eq!(e.timers_cancelled, 0);
        // The second is disarmed by the node going down (the scan
        // scheduler relies on it: a dead endsystem has no queue to pump).
        e.set_timer(NodeIdx(0), Duration::from_secs(10), 4);
        e.schedule_down(Time::ZERO + Duration::from_secs(5), NodeIdx(0));
        let evs = drain(&mut e, Time::ZERO + Duration::from_secs(60));
        assert_eq!(evs.len(), 1, "{evs:?}");
        assert!(evs[0].1.contains("NodeDown"));
        assert_eq!(e.timers_cancelled, 1);
    }

    #[test]
    fn cancel_timer_disarms_and_is_idempotent() {
        let mut e = engine(1, 0);
        e.schedule_up(Time::ZERO, NodeIdx(0));
        let _ = e.next_event_before(Time(1));
        let h = e.set_timer(NodeIdx(0), Duration::from_secs(3), 7);
        let kept = e.set_timer(NodeIdx(0), Duration::from_secs(4), 8);
        assert!(e.cancel_timer(h));
        assert!(!e.cancel_timer(h), "second cancel is a no-op");
        let evs = drain(&mut e, Time::ZERO + Duration::from_secs(10));
        assert_eq!(evs.len(), 1, "{evs:?}");
        assert!(evs[0].1.contains("tag: 8"), "{evs:?}");
        // A handle whose timer already fired cancels as a no-op too.
        assert!(!e.cancel_timer(kept));
    }

    #[test]
    fn timer_fires_with_tag() {
        let mut e = engine(1, 0);
        e.schedule_up(Time::ZERO, NodeIdx(0));
        let _ = e.next_event_before(Time(1));
        e.set_timer(NodeIdx(0), Duration::from_secs(3), 7);
        let (t, ev) = e
            .next_event_before(Time::ZERO + Duration::from_secs(10))
            .unwrap();
        assert_eq!(t, Time::ZERO + Duration::from_secs(3));
        assert!(matches!(
            ev,
            Event::Timer {
                node: NodeIdx(0),
                tag: 7
            }
        ));
    }

    #[test]
    fn horizon_stops_and_advances_clock() {
        let mut e = engine(1, 0);
        e.schedule_up(Time::ZERO + Duration::from_secs(100), NodeIdx(0));
        assert!(e
            .next_event_before(Time::ZERO + Duration::from_secs(50))
            .is_none());
        assert_eq!(e.now(), Time::ZERO + Duration::from_secs(50));
        assert!(e
            .next_event_before(Time::ZERO + Duration::from_secs(200))
            .is_some());
        assert_eq!(e.now(), Time::ZERO + Duration::from_secs(100));
    }

    #[test]
    fn past_dated_events_clamp_to_now() {
        let mut e = engine(1, 0);
        e.schedule_up(Time::ZERO, NodeIdx(0));
        let _ = e.next_event_before(Time::ZERO + Duration::from_secs(5)); // NodeUp
        assert!(e
            .next_event_before(Time::ZERO + Duration::from_secs(5))
            .is_none());
        // Clock sits at the horizon (5s); date an event before it.
        assert_eq!(e.now(), Time::ZERO + Duration::from_secs(5));
        e.schedule_down(Time::ZERO + Duration::from_secs(2), NodeIdx(0));
        let (t, ev) = e
            .next_event_before(Time::ZERO + Duration::from_secs(10))
            .unwrap();
        assert_eq!(t, e.now());
        assert_eq!(t, Time::ZERO + Duration::from_secs(5));
        assert!(matches!(ev, Event::NodeDown { .. }));
        assert_eq!(e.clamped_to_now, 1);
    }

    #[test]
    fn loss_rate_drops_messages() {
        let mut e: Engine<u32> = Engine::new(
            Box::new(UniformTopology::new(2, Duration::MILLISECOND)),
            SimConfig {
                seed: 1,
                loss_rate: 1.0,
                ..SimConfig::default()
            },
        );
        e.schedule_up(Time::ZERO, NodeIdx(0));
        e.schedule_up(Time::ZERO, NodeIdx(1));
        let _ = e.next_event_before(Time(1));
        let _ = e.next_event_before(Time(1));
        e.send(NodeIdx(0), NodeIdx(1), 1, 10, TrafficClass::Query);
        assert!(e
            .next_event_before(Time::ZERO + Duration::from_secs(1))
            .is_none());
        assert_eq!(e.dropped_loss, 1);
    }

    /// An accounted send is a send to the last draw: with every third
    /// message accounted instead of delivered, under loss, a partition,
    /// duplication and reordering, every other message arrives when it
    /// would have, every drop is counted where it was, and the final
    /// report — bytes out and in, per hour — is the same. What is missing
    /// is the accounted deliveries, and their share of `messages_sent`.
    #[test]
    fn an_accounted_send_draws_what_a_delivered_one_does() {
        use crate::faults::PartitionSpec;
        const SENDS: u32 = 600;
        let run = |account: bool| {
            let plan = FaultPlan {
                // Open from the start: a cut that opens over a message
                // in flight swallows it at delivery, which an accounted
                // send does not have.
                partitions: vec![PartitionSpec {
                    members: vec![3],
                    from: Time::ZERO,
                    until: Time(3_000),
                }],
                dup_rate: 0.2,
                reorder_window: Duration::from_millis(3),
                ..FaultPlan::default()
            };
            let mut e: Engine<u32> = Engine::new(
                Box::new(UniformTopology::new(4, Duration::from_millis(2))),
                SimConfig {
                    seed: 5,
                    loss_rate: 0.15,
                    faults: Some(plan),
                    ..SimConfig::default()
                },
            );
            for i in 0..4 {
                e.schedule_up(Time::ZERO, NodeIdx(i));
            }
            let mut delivered = Vec::new();
            let mut next = 0u32;
            loop {
                // One send per 10 µs of simulated time, then drain.
                let horizon = Time(u64::from(next.min(SENDS)) * 10 + 1);
                while let Some((t, ev)) = e.next_event_before(horizon) {
                    if let Event::Message { payload, .. } = ev {
                        delivered.push((t, payload.into_owned()));
                    }
                }
                if next == SENDS {
                    break;
                }
                let (from, to) = (NodeIdx(next % 4), NodeIdx((next + 1 + next / 4 % 3) % 4));
                if account && next.is_multiple_of(3) {
                    e.send_accounted(from, to, 100 + next, TrafficClass::Query);
                } else {
                    e.send(from, to, next, 100 + next, TrafficClass::Query);
                }
                next += 1;
            }
            while let Some((t, ev)) = e.next_event_before(Time::from_secs(1)) {
                if let Event::Message { payload, .. } = ev {
                    delivered.push((t, payload.into_owned()));
                }
            }
            let sent = e.messages_sent;
            (delivered, sent, format!("{:?}", e.finish()))
        };
        let (all, all_sent, all_report) = run(false);
        let (rest, rest_sent, rest_report) = run(true);
        assert_eq!(all_sent, u64::from(SENDS));
        assert_eq!(rest_sent, u64::from(SENDS - SENDS / 3));
        assert!(all.len() > rest.len());
        let others: Vec<_> = all
            .iter()
            .filter(|(_, i)| !i.is_multiple_of(3))
            .copied()
            .collect();
        assert_eq!(others, rest);
        assert_eq!(all_report, rest_report);
    }

    #[test]
    fn bandwidth_is_accounted() {
        let mut e = engine(2, 1);
        e.schedule_up(Time::ZERO, NodeIdx(0));
        e.schedule_up(Time::ZERO, NodeIdx(1));
        let _ = e.next_event_before(Time(1));
        let _ = e.next_event_before(Time(1));
        e.send(NodeIdx(0), NodeIdx(1), "x", 500, TrafficClass::Maintenance);
        let _ = drain(&mut e, Time::ZERO + Duration::from_hours(2));
        let report = e.finish();
        assert_eq!(report.total_tx[TrafficClass::Maintenance as usize], 500);
        let rx: u64 = report
            .rx_hours
            .iter()
            .map(|h| h.bytes[TrafficClass::Maintenance as usize])
            .sum();
        assert_eq!(rx, 500);
    }

    #[test]
    fn up_nodes_iterates_live_set() {
        let mut e = engine(4, 0);
        e.schedule_up(Time::ZERO, NodeIdx(1));
        e.schedule_up(Time::ZERO, NodeIdx(3));
        let _ = e.next_event_before(Time(1));
        let _ = e.next_event_before(Time(1));
        let ups: Vec<_> = e.up_nodes().collect();
        assert_eq!(ups, vec![NodeIdx(1), NodeIdx(3)]);
        assert_eq!(e.num_up(), 2);
        assert!(e.is_up(NodeIdx(3)));
        assert!(!e.is_up(NodeIdx(0)));
    }

    /// Long-delay timers cross multiple cascade levels and still fire in
    /// exact time order.
    #[test]
    fn wheel_cascades_preserve_order_across_levels() {
        let mut e = engine(1, 0);
        e.schedule_up(Time::ZERO, NodeIdx(0));
        let _ = e.next_event_before(Time(1));
        // Delays from µs to hours: levels 0 through ~5.
        let delays: &[u64] = &[
            1,
            63,
            64,
            65,
            4_095,
            4_096,
            262_143,
            262_144,
            10_000_000,
            3_600_000_000,
        ];
        for (i, &d) in delays.iter().enumerate() {
            e.set_timer(NodeIdx(0), Duration::from_micros(d), i as u64);
        }
        let horizon = Time::ZERO + Duration::from_secs(7200);
        let fired: Vec<Time> =
            std::iter::from_fn(|| e.next_event_before(horizon).map(|(t, _)| t)).collect();
        let expect: Vec<Time> = delays.iter().map(|&d| Time(d)).collect();
        assert_eq!(fired, expect);
    }
}
