//! Partitioned conservative parallel execution (DESIGN.md §3.7).
//!
//! The classic conservative-parallel-DES recipe applied to the CorpNet
//! shape: endsystems shard into partitions separated by ≥`lookahead` of
//! modelled network latency (branch/region subtrees — see
//! [`crate::topology::PartitionMap`]), each partition runs its own
//! [`Engine`] on its own event wheel, and partitions synchronize with a
//! lower-bound-timestamp (LBTS) window protocol:
//!
//! * A **window** is a half-open interval of simulated time ending at
//!   `E`. Every partition processes all of its local events with
//!   `t <= E` before anyone may start the next window.
//! * Events processed in a window starting at global minimum `m` have
//!   `t >= m`; a cross-partition message sent at `t` arrives no earlier
//!   than `t + lookahead >= m + lookahead > E = m + lookahead − 1 µs`.
//!   Arrivals therefore always land in a *later* window — one barrier
//!   per window suffices, with no null messages.
//! * Cross-partition sends are staged in a per-partition [`Outbox`] and
//!   flushed into the destination's **inbox** for the *next* window
//!   (parity-indexed double buffer: window `k` writes slot `(k+1) % 2`
//!   while slot `k % 2` is being drained, so one barrier orders all
//!   writers before all readers with no lock held across the window).
//! * After each window every partition publishes its next local event
//!   time (engine queue ∪ arrivals it just sent); the global minimum
//!   `m` jumps the next window start past idle gaps, so synchronization
//!   cost scales with event density, not wall-clock windows.
//!
//! **Determinism** is byte-identical to [`ExecKind::Serial`] by
//! construction, not by luck:
//!
//! * within a window partitions share no mutable state — each runs its
//!   own engine, RNG ([`partition_seed`] stream-splits the experiment
//!   seed) and application shard;
//! * inboxes are drained in a canonical merge order — sorted by
//!   `(arrival time, source partition, source sequence)` — which no
//!   thread interleaving can perturb;
//! * the window-end sequence is a pure function of published next-event
//!   times, identical in both modes.
//!
//! `Serial` runs the *same* windowed loop on the calling thread (one
//! worker owning every partition), so the equivalence test in
//! `tests/exec_determinism.rs` pins the parallel mode against an oracle
//! that shares every line of protocol code but none of the threading.
//!
//! Threads are deliberately confined to this module (and the bench
//! worker pool): the root `clippy.toml` bans `thread::spawn`/`scope`
//! everywhere, and these two homes carry the only `#[expect]`s.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

use seaweed_types::{Duration, Time};

use crate::bandwidth::TrafficClass;
use crate::engine::{Engine, Event, NodeIdx};

/// Execution mode for a partitioned run. Both modes run the identical
/// windowed protocol; `Serial` is the single-threaded oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExecKind {
    /// One thread owns every partition; windows run in partition order.
    #[default]
    Serial,
    /// Worker threads own disjoint partition subsets; windows run
    /// concurrently between barriers.
    Parallel,
}

/// Configuration for [`run_partitioned`].
#[derive(Clone, Copy, Debug)]
pub struct ExecConfig {
    pub kind: ExecKind,
    /// Number of partitions (shards). Must match the partition map used
    /// to build the shard engines.
    pub partitions: usize,
    /// Worker threads for [`ExecKind::Parallel`]; `0` = auto
    /// (`min(partitions, thread_budget())`). Ignored by `Serial`.
    pub workers: usize,
}

impl ExecConfig {
    /// Worker threads this configuration will actually use.
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        match self.kind {
            ExecKind::Serial => 1,
            ExecKind::Parallel => {
                let w = if self.workers == 0 {
                    thread_budget()
                } else {
                    self.workers
                };
                w.clamp(1, self.partitions.max(1))
            }
        }
    }
}

/// RNG stream-separation constant for per-partition engine seeds
/// (registered in lint.toml `[[stream]]`).
pub const EXEC_PARTITION_STREAM: u64 = 0xeaec_0a57_a11e_1d05;

/// Derives partition `p`'s engine seed from the experiment seed: the
/// partition index is spread by a splitmix64-style odd multiplier so
/// neighbouring partitions land in unrelated stream regions.
#[must_use]
pub fn partition_seed(base: u64, p: usize) -> u64 {
    base ^ EXEC_PARTITION_STREAM ^ (p as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

// ---------------------------------------------------------------- budget

/// Global worker-thread budget shared with the bench sweep pool: when an
/// outer `--jobs` sweep is running `J` single-threaded runs
/// concurrently, inner partition executors must not oversubscribe
/// the machine on top of it. `0` = unset (use available parallelism).
static THREAD_BUDGET: AtomicUsize = AtomicUsize::new(0);

/// Caps the number of worker threads [`ExecConfig::effective_workers`]
/// resolves `workers: 0` to. Pass the machine's remaining parallelism
/// (`max(1, cores − outer_jobs)`); `0` resets to "whole machine".
/// Returns the previous raw value (also `0` for unset) so callers can
/// scope a budget and restore it afterwards.
pub fn set_thread_budget(n: usize) -> usize {
    THREAD_BUDGET.swap(n, Ordering::SeqCst)
}

/// The current worker-thread budget: the value set by
/// [`set_thread_budget`], or available parallelism when unset.
#[must_use]
pub fn thread_budget() -> usize {
    match THREAD_BUDGET.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        n => n,
    }
}

// ------------------------------------------------------------- envelopes

/// A cross-partition message or control payload in flight.
struct Envelope<M, C> {
    /// Arrival time (µs); always beyond the sending window's end.
    at_us: u64,
    src_part: u32,
    /// Per-source-partition monotonic sequence; with `(at_us, src_part)`
    /// this makes the inbox merge order a total order independent of
    /// thread timing.
    src_seq: u64,
    body: Body<M, C>,
}

enum Body<M, C> {
    /// An engine-level message for local node `to` of the destination
    /// partition, delivered through [`Engine::accept_remote`].
    Msg {
        to: NodeIdx,
        payload: M,
        size: u32,
        class: TrafficClass,
    },
    /// An application-level control payload, delivered through
    /// [`PartitionApp::on_ctl`].
    Ctl(C),
}

/// Staging buffer for one partition's outgoing cross-partition traffic.
/// Sends accumulate locally during a window and flush to destination
/// inboxes in one lock acquisition per destination at window end.
pub struct Outbox<M, C> {
    part: u32,
    seq: u64,
    staged: Vec<(u32, Envelope<M, C>)>,
    /// Earliest arrival staged this window (µs); feeds the LBTS jump.
    min_arrival_us: u64,
}

impl<M, C> std::fmt::Debug for Outbox<M, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Outbox")
            .field("part", &self.part)
            .field("seq", &self.seq)
            .field("staged", &self.staged.len())
            .finish()
    }
}

impl<M, C> Outbox<M, C> {
    fn new(part: u32) -> Self {
        Outbox {
            part,
            seq: 0,
            staged: Vec::new(),
            min_arrival_us: u64::MAX,
        }
    }

    /// Stages an engine message for node `to` (destination partition's
    /// local index space), arriving at absolute time `at`. The caller
    /// charges transmission via [`Engine::charge_remote_tx`]; reception
    /// is charged by the destination engine on delivery. `at` must be at
    /// least one lookahead beyond the sender's current window — the
    /// executor asserts this downstream by construction of the window
    /// protocol.
    pub fn send_remote(
        &mut self,
        dest_part: u32,
        at: Time,
        to: NodeIdx,
        payload: M,
        size: u32,
        class: TrafficClass,
    ) {
        self.stage(
            dest_part,
            at,
            Body::Msg {
                to,
                payload,
                size,
                class,
            },
        );
    }

    /// Stages an application-level control payload, handed to the
    /// destination shard's [`PartitionApp::on_ctl`] at the first window
    /// whose inbox drain sees it (its `at` stamp is the authoritative
    /// logical time).
    pub fn send_ctl(&mut self, dest_part: u32, at: Time, ctl: C) {
        self.stage(dest_part, at, Body::Ctl(ctl));
    }

    fn stage(&mut self, dest_part: u32, at: Time, body: Body<M, C>) {
        debug_assert_ne!(dest_part, self.part, "remote send to own partition");
        let at_us = at.as_micros();
        self.min_arrival_us = self.min_arrival_us.min(at_us);
        self.staged.push((
            dest_part,
            Envelope {
                at_us,
                src_part: self.part,
                src_seq: self.seq,
                body,
            },
        ));
        self.seq += 1;
    }
}

/// One partition's application shard driven by the executor.
pub trait PartitionApp<M> {
    /// Application-level cross-partition control payload. `()` if the
    /// application only ever sends engine messages across partitions.
    type Ctl: Send;

    /// Dispatches one local engine event; cross-partition traffic goes
    /// through `out`.
    fn dispatch(&mut self, eng: &mut Engine<M>, ev: Event<M>, out: &mut Outbox<M, Self::Ctl>);

    /// Handles a control payload stamped `at` from `from_part`. Called
    /// during the inbox drain at a window start, before any event of
    /// that window is dispatched; `eng.now() <= at` always holds, so
    /// implementations wanting exact-time semantics arm a timer for
    /// `at − eng.now()`.
    fn on_ctl(
        &mut self,
        eng: &mut Engine<M>,
        at: Time,
        from_part: u32,
        ctl: Self::Ctl,
        out: &mut Outbox<M, Self::Ctl>,
    ) {
        let _ = (eng, at, from_part, out);
        let _ = ctl;
        unimplemented!("application sent a ctl payload but does not handle ctl");
    }
}

// ------------------------------------------------------------- the loop

/// Parity-indexed double buffer of one partition's pending envelopes:
/// slot `k % 2` is drained by window `k` while senders fill the other.
type Inbox<M, C> = [Mutex<Vec<Envelope<M, C>>>; 2];

/// Shared synchronization state between workers.
struct Shared<M, C> {
    /// `inboxes[dest][parity]`: envelopes awaiting the drain of `dest`'s
    /// next window.
    inboxes: Vec<Inbox<M, C>>,
    /// `next_at[part][parity]`: next local event time (µs) published at
    /// each window's end; `u64::MAX` = idle.
    next_at: Vec<[AtomicU64; 2]>,
    barrier: Barrier,
}

/// One partition's runtime bundle.
struct Shard<M, A: PartitionApp<M>> {
    part: usize,
    eng: Engine<M>,
    app: A,
    out: Outbox<M, A::Ctl>,
}

/// Runs `cfg.partitions` shards to `horizon` under the conservative
/// window protocol and returns `finish`'s result per partition, in
/// partition order.
///
/// `build(p)` constructs partition `p`'s engine + application shard —
/// it runs *on the worker thread that owns the partition* (engines are
/// deliberately not `Send`: payload fan-out shares `Rc` allocations).
/// `lookahead` must lower-bound every cross-partition arrival delay;
/// [`crate::topology::PartitionMap::lookahead`] provides it.
///
/// # Panics
/// Panics if `cfg.partitions == 0` or `lookahead` is zero (a zero
/// lookahead admits no conservative window).
pub fn run_partitioned<M, A, B, F, R>(
    cfg: &ExecConfig,
    lookahead: Duration,
    horizon: Time,
    build: B,
    finish: F,
) -> Vec<R>
where
    A: PartitionApp<M>,
    A::Ctl: Send,
    M: Send,
    B: Fn(usize) -> (Engine<M>, A) + Sync,
    F: Fn(usize, Engine<M>, A) -> R + Sync,
    R: Send,
{
    assert!(cfg.partitions > 0, "need at least one partition");
    assert!(
        lookahead > Duration::ZERO,
        "conservative windows need positive lookahead"
    );
    let parts = cfg.partitions;
    let workers = cfg.effective_workers();
    let shared: Shared<M, A::Ctl> = Shared {
        inboxes: (0..parts)
            .map(|_| [Mutex::new(Vec::new()), Mutex::new(Vec::new())])
            .collect(),
        next_at: (0..parts)
            .map(|_| [AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)])
            .collect(),
        barrier: Barrier::new(workers),
    };

    let worker_loop = |worker: usize| -> Vec<(usize, R)> {
        // Round-robin ownership: worker w owns partitions w, w+W, …
        let mut shards: Vec<Shard<M, A>> = (worker..parts)
            .step_by(workers)
            .map(|p| {
                let (eng, app) = build(p);
                Shard {
                    part: p,
                    eng,
                    app,
                    out: Outbox::new(p as u32),
                }
            })
            .collect();

        let mut parity = 0usize;
        let mut window_end = Time::ZERO;
        loop {
            for shard in &mut shards {
                run_window(shard, &shared, parity, window_end);
            }
            shared.barrier.wait();
            // The published minima are identical for every worker, so
            // all workers take the same branch below — no second
            // barrier needed.
            let m = (0..parts)
                .map(|p| shared.next_at[p][parity].load(Ordering::SeqCst))
                .min()
                .unwrap_or(u64::MAX);
            parity ^= 1;
            if window_end >= horizon || m == u64::MAX {
                break;
            }
            // Next window: [m, m + lookahead − 1 µs]. Events processed
            // in it have t >= m, so their sends arrive at
            // >= m + lookahead, strictly beyond the window.
            let end_us = m
                .saturating_add(lookahead.as_micros().saturating_sub(1))
                .min(horizon.as_micros());
            window_end = Time(end_us);
        }
        shards
            .into_iter()
            .map(|s| (s.part, (finish)(s.part, s.eng, s.app)))
            .collect()
    };

    let mut results: Vec<(usize, R)> = match cfg.kind {
        ExecKind::Serial => worker_loop(0),
        #[expect(
            clippy::disallowed_methods,
            reason = "exec.rs IS the sanctioned partitioned executor: scoped workers under the conservative LBTS-window protocol, determinism pinned byte-for-byte against ExecKind::Serial by the exec_determinism and federation proptests"
        )]
        ExecKind::Parallel => std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| scope.spawn(move || worker_loop(w)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("executor worker panicked"))
                .collect()
        }),
    };
    results.sort_by_key(|&(p, _)| p);
    debug_assert_eq!(results.len(), parts);
    results.into_iter().map(|(_, r)| r).collect()
}

/// One partition's window: drain the inbox in canonical order, run local
/// events to `window_end`, flush staged sends, publish the next local
/// event time.
fn run_window<M, A: PartitionApp<M>>(
    shard: &mut Shard<M, A>,
    shared: &Shared<M, A::Ctl>,
    parity: usize,
    window_end: Time,
) {
    let p = shard.part;
    // Drain: everything posted for this window, in canonical order. The
    // sort key makes the merge independent of which thread posted first.
    let mut drained = std::mem::take(
        &mut *shared.inboxes[p][parity]
            .lock()
            .expect("inbox poisoned: a worker panicked"),
    );
    drained.sort_by_key(|e| (e.at_us, e.src_part, e.src_seq));
    for env in drained {
        let at = Time(env.at_us);
        debug_assert!(
            at > shard.eng.now() || shard.eng.now() == Time::ZERO,
            "conservative violation: arrival {at:?} not beyond engine now {:?}",
            shard.eng.now()
        );
        match env.body {
            Body::Msg {
                to,
                payload,
                size,
                class,
            } => shard.eng.accept_remote(at, to, payload, size, class),
            Body::Ctl(ctl) => {
                shard
                    .app
                    .on_ctl(&mut shard.eng, at, env.src_part, ctl, &mut shard.out);
            }
        }
    }

    // Execute the window.
    while let Some((_, ev)) = shard.eng.next_event_before(window_end) {
        shard.app.dispatch(&mut shard.eng, ev, &mut shard.out);
    }

    // Flush staged sends into destination inboxes for the *next* window
    // (opposite parity). Group per destination: one lock each.
    let staged = std::mem::take(&mut shard.out.staged);
    let min_sent = std::mem::replace(&mut shard.out.min_arrival_us, u64::MAX);
    if !staged.is_empty() {
        type DestBatch<M, C> = Vec<(u32, Vec<Envelope<M, C>>)>;
        let mut by_dest: DestBatch<M, A::Ctl> = Vec::new();
        for (dest, env) in staged {
            match by_dest.iter_mut().find(|(d, _)| *d == dest) {
                Some((_, v)) => v.push(env),
                None => by_dest.push((dest, vec![env])),
            }
        }
        for (dest, envs) in by_dest {
            shared.inboxes[dest as usize][parity ^ 1]
                .lock()
                .expect("inbox poisoned: a worker panicked")
                .extend(envs);
        }
    }

    // Publish this shard's lower bound on its next event: its engine
    // queue plus the arrivals it just sent (which sit in peers' inboxes
    // and are otherwise invisible to the global minimum).
    let next = shard
        .eng
        .next_pending_at()
        .map_or(u64::MAX, Time::as_micros)
        .min(min_sent);
    shared.next_at[p][parity].store(next, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_seed_spreads_streams() {
        let s: Vec<u64> = (0..8).map(|p| partition_seed(42, p)).collect();
        for (i, a) in s.iter().enumerate() {
            for b in &s[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // Stable across calls (no hidden state).
        assert_eq!(partition_seed(42, 3), partition_seed(42, 3));
    }

    #[test]
    fn thread_budget_defaults_and_caps() {
        set_thread_budget(0);
        assert!(thread_budget() >= 1);
        set_thread_budget(3);
        assert_eq!(thread_budget(), 3);
        let cfg = ExecConfig {
            kind: ExecKind::Parallel,
            partitions: 8,
            workers: 0,
        };
        assert_eq!(cfg.effective_workers(), 3);
        // More budget than partitions: clamp to partitions.
        set_thread_budget(64);
        assert_eq!(cfg.effective_workers(), 8);
        // Explicit worker count wins over the budget.
        let explicit = ExecConfig { workers: 2, ..cfg };
        assert_eq!(explicit.effective_workers(), 2);
        let serial = ExecConfig {
            kind: ExecKind::Serial,
            ..cfg
        };
        assert_eq!(serial.effective_workers(), 1);
        set_thread_budget(0);
    }
}
