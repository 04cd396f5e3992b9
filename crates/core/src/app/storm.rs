//! Storm mode: the concurrent multi-query engine.
//!
//! Three mechanisms, all dormant unless [`super::SeaweedConfig::storm`]
//! is set (and behavior-neutral for a single uncontended query even when
//! it is — see DESIGN.md §3.6 for the byte-identity argument):
//!
//! * **Admission control** — a bounded in-flight budget at the injection
//!   point. [`Seaweed::submit_query`] admits immediately while slots are
//!   free and otherwise parks the submission in a deterministic FIFO;
//!   every retirement promotes queued submissions in ticket order.
//! * **Slot recycling** — retired queries release their registry slot
//!   behind a generation bump at the end of the event or call that
//!   retired them ([`Seaweed::reclaim_slots`]), so a run can process
//!   arbitrarily many queries through the 64-slot registry while late
//!   traffic for dead queries — messages at the message boundary, timer
//!   actions at their fire — is rejected by its generation
//!   (`stale_handle_drops`).
//! * **Fair scan scheduling** — each endsystem charges a local execution
//!   its scan cost (rows touched) and slices contended executions into
//!   preemption quanta, round-robining in deterministic `(quantum
//!   deadline, slot)` order. Queries finishing in the same quantum share
//!   one table pass ([`DataProvider::execute_many`]).

use seaweed_sim::NodeIdx;
use seaweed_store::Query;
use seaweed_types::Duration;

use super::{DataProvider, QueryHandle, Seaweed, SeaweedEngine, TimerAction, SLOT_BITS};

// Compile-time guard: the 64-slot bitmask design requires slots to fit
// a u64 bit index, which SLOT_BITS comfortably exceeds — the runtime
// cap is the registry assert in `alloc_slot`.
const _: () = assert!(SLOT_BITS >= 6);

/// Tuning knobs for storm mode. The defaults bound in-flight queries at
/// the registry limit and slice scans at a granularity that keeps a 10k
/// row endsystem scan to a couple of quanta.
#[derive(Clone, Debug)]
pub struct StormConfig {
    /// In-flight query budget (clamped to the 64-slot registry).
    pub max_in_flight: usize,
    /// Rows of scan progress one quantum buys a query.
    pub quantum_rows: u64,
    /// Wall-clock length of one scheduler quantum.
    pub quantum: Duration,
    /// Most queries one quantum advances at a node (the shared-scan
    /// batch width).
    pub max_batch: usize,
}

impl Default for StormConfig {
    fn default() -> Self {
        StormConfig {
            max_in_flight: 64,
            quantum_rows: 4096,
            quantum: Duration::from_millis(20),
            max_batch: 8,
        }
    }
}

/// Outcome of a [`Seaweed::submit_query`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Submission {
    /// The query entered the in-flight set; the handle is live.
    Admitted(QueryHandle),
    /// The in-flight budget was full; the submission waits in ticket
    /// order. Watch [`Seaweed::drain_admissions`] for the handle.
    Queued(u64),
}

/// A submission parked behind the in-flight budget.
#[derive(Clone, Debug)]
pub(crate) struct QueuedSubmission {
    pub ticket: u64,
    pub origin: NodeIdx,
    /// Canonicalized query text (parse-validated at submission).
    pub sql: String,
    pub ttl: Duration,
    pub schema: seaweed_store::Schema,
}

/// Per-endsystem scan-scheduler state.
#[derive(Clone, Debug, Default)]
pub(crate) struct ScanNode {
    /// Executions queued behind the quantum scheduler.
    pub tasks: Vec<ScanTask>,
    /// Virtual round clock ordering the round-robin.
    pub vclock: u64,
    /// Whether a quantum pump timer is armed.
    pub pump: bool,
}

/// One queued local execution at one endsystem.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ScanTask {
    /// Query slot (not a wire handle: the scheduler is slot-internal).
    pub slot: u32,
    /// Virtual round this task next runs in; with `slot` it forms the
    /// deterministic service order.
    pub deadline: u64,
    /// Scan rows still to be charged before the execution completes.
    pub remaining: u64,
}

impl<P: DataProvider> Seaweed<P> {
    /// The in-flight budget (storm mode; the registry limit otherwise).
    fn storm_budget(&self) -> usize {
        self.cfg
            .storm
            .as_ref()
            .map_or(64, |s| s.max_in_flight.clamp(1, 64))
    }

    /// Queries currently holding a registry slot.
    #[must_use]
    pub fn storm_in_flight(&self) -> usize {
        self.queries.len() - self.free_slots.len()
    }

    /// Submissions parked behind the in-flight budget.
    #[must_use]
    pub fn storm_queue_len(&self) -> usize {
        self.storm_queue.len()
    }

    fn storm_capacity(&self) -> bool {
        self.storm_in_flight() < self.storm_budget()
    }

    /// Submits a one-shot query under admission control. Without storm
    /// mode this is exactly [`Seaweed::inject_query`]. With it, the
    /// query is admitted immediately while the in-flight budget has
    /// room, else parked in the deterministic admission queue; parked
    /// submissions are validated (parsed) eagerly so a malformed query
    /// fails at submission time, not when a slot frees.
    pub fn submit_query(
        &mut self,
        eng: &mut SeaweedEngine,
        origin: NodeIdx,
        sql: &str,
        ttl: Duration,
        schema: &seaweed_store::Schema,
    ) -> Result<Submission, seaweed_store::StoreError> {
        if self.cfg.storm.is_none() {
            return self
                .inject_query(eng, origin, sql, ttl, schema)
                .map(Submission::Admitted);
        }
        if self.storm_capacity() {
            let h = self.inject_query(eng, origin, sql, ttl, schema)?;
            self.stats.storm_admitted += 1;
            return Ok(Submission::Admitted(h));
        }
        let parsed = Query::parse(sql)?;
        if parsed.group_by.is_some() {
            return Err(seaweed_store::StoreError::BadAggregate(
                "GROUP BY is not supported for distributed queries".into(),
            ));
        }
        let ticket = self.storm_seq;
        self.storm_seq += 1;
        self.storm_queue.push_back(QueuedSubmission {
            ticket,
            origin,
            sql: parsed.text,
            ttl,
            schema: schema.clone(),
        });
        self.stats.storm_queued += 1;
        Ok(Submission::Queued(ticket))
    }

    /// Retires a completed query: origin-side teardown plus (storm mode)
    /// slot release and queue admission before it returns. Idempotent,
    /// and a no-op on a stale handle — retiring twice or racing the TTL
    /// expiry is safe.
    /// Unlike [`Seaweed::cancel_query`] no cancel notice is charged: the
    /// caller asserts the query already ran to completion, so there is
    /// nothing left to stop.
    pub fn retire_query(&mut self, eng: &mut SeaweedEngine, h: QueryHandle) {
        let Some(slot) = self.live_slot(h) else {
            return;
        };
        if !self.queries[slot as usize].active {
            return;
        }
        self.expire_query(slot);
        self.reclaim_slots(eng);
    }

    /// `(ticket, handle)` pairs admitted from the queue since the last
    /// call, in admission order. The storm driver polls this to learn
    /// which parked submissions went live.
    pub fn drain_admissions(&mut self) -> Vec<(u64, QueryHandle)> {
        std::mem::take(&mut self.admitted_log)
    }

    /// Releases the slots retired during the event or call now ending.
    /// Runs last in the three entry points that can retire a query —
    /// [`Seaweed::dispatch`], [`Seaweed::retire_query`] and
    /// [`Seaweed::cancel_query`] — so no handler ever sees a slot change
    /// tenant under it. Each retires at most one query.
    pub(crate) fn reclaim_slots(&mut self, eng: &mut SeaweedEngine) {
        while let Some(slot) = self.retired.pop() {
            self.release_slot(eng, slot);
        }
    }

    /// Releases a retired query's slot for recycling: generation bump
    /// (invalidating every handle on the wire and in every parked timer
    /// action), global per-node state purge, then queue admission. Storm
    /// mode only; called from [`Seaweed::reclaim_slots`] alone.
    fn release_slot(&mut self, eng: &mut SeaweedEngine, slot: QueryHandle) {
        debug_assert!(self.cfg.storm.is_some());
        debug_assert!(!self.queries[slot as usize].active);
        self.slot_gen[slot as usize] += 1;
        self.query_by_id.remove(&self.queries[slot as usize].id);
        let mask = !(1u64 << slot);
        for w in &mut self.knows_query {
            *w &= mask;
        }
        for w in &mut self.submitted {
            *w &= mask;
        }
        for w in &mut self.exec_pending {
            *w &= mask;
        }
        // Deferred actions armed for the dead query stay parked: each is
        // dropped when its timer fires and its handle fails the
        // generation check (`on_app_timer`).
        for sn in &mut self.scan {
            sn.tasks.retain(|t| t.slot != slot);
        }
        let pos = self.free_slots.partition_point(|&s| s > slot);
        debug_assert_ne!(self.free_slots.get(pos), Some(&slot), "double release");
        self.free_slots.insert(pos, slot);
        self.try_admit(eng);
    }

    /// Promotes queued submissions while the in-flight budget has room.
    /// An origin that went down (or never joined) while parked drops its
    /// submission — deterministically, in queue order — rather than
    /// injecting from a dead node.
    fn try_admit(&mut self, eng: &mut SeaweedEngine) {
        while self.storm_capacity() {
            let Some(sub) = self.storm_queue.pop_front() else {
                break;
            };
            if !eng.is_up(sub.origin) || !self.overlay.is_joined(sub.origin) {
                self.stats.storm_dropped += 1;
                continue;
            }
            match self.inject_query(eng, sub.origin, &sub.sql, sub.ttl, &sub.schema) {
                Ok(h) => {
                    self.stats.storm_admitted += 1;
                    self.admitted_log.push((sub.ticket, h));
                }
                Err(_) => {
                    // Parse was validated at submission; a bind error at
                    // admission (schema drift) drops the submission.
                    self.stats.storm_dropped += 1;
                }
            }
        }
    }

    // ------------------------------------------- fair scan scheduling

    /// Whether a local one-shot execution at `n` must go through the
    /// scan scheduler instead of executing inline: storm mode is on and
    /// the endsystem is contended (another query's execution is pending
    /// there, or the scan queue is already draining). With a single
    /// query this is always false — the baseline path runs untouched.
    pub(crate) fn scan_contended(&self, n: NodeIdx, slot: QueryHandle) -> bool {
        self.cfg.storm.is_some()
            && (!self.scan[n.idx()].tasks.is_empty()
                || self.exec_pending[n.idx()] & !(1u64 << slot) != 0)
    }

    /// Queues a local execution behind the quantum scheduler, charging
    /// it the provider's scan cost, and arms the pump timer if idle.
    pub(crate) fn enqueue_scan(&mut self, eng: &mut SeaweedEngine, n: NodeIdx, slot: QueryHandle) {
        let Some(storm) = self.cfg.storm.as_ref() else {
            debug_assert!(false, "enqueue_scan without storm mode");
            return;
        };
        let quantum = storm.quantum;
        let cost = self.provider.scan_cost(n.idx()).max(1);
        let sn = &mut self.scan[n.idx()];
        sn.tasks.push(ScanTask {
            slot,
            deadline: sn.vclock,
            remaining: cost,
        });
        if !sn.pump {
            sn.pump = true;
            self.set_app_timer(eng, n, quantum, TimerAction::ScanQuantum { node: n });
        }
    }

    /// One scheduler quantum at `n`: advance up to `max_batch` queued
    /// executions — picked in `(deadline, slot)` order, so every queued
    /// query is served once per virtual round before any is served twice
    /// — by `quantum_rows` each; executions that finish their scan run
    /// in one shared table pass; re-arm the pump while work remains.
    pub(crate) fn on_scan_quantum(&mut self, eng: &mut SeaweedEngine, n: NodeIdx) {
        let Some(storm) = self.cfg.storm.as_ref() else {
            return;
        };
        let quantum_rows = storm.quantum_rows.max(1);
        let quantum = storm.quantum;
        let max_batch = storm.max_batch.max(1);
        self.scan[n.idx()].pump = false;
        // The engine drops liveness-tied timers of down nodes at fire
        // time and `on_node_down` clears the queue, so a fire on a down
        // or unjoined node is already impossible; the guard is cheap
        // insurance against a stray fire touching dead state.
        if !eng.is_up(n) || !self.overlay.is_joined(n) {
            return;
        }
        let sn = &mut self.scan[n.idx()];
        if sn.tasks.is_empty() {
            return;
        }
        self.stats.scan_quanta += 1;
        sn.tasks.sort_unstable_by_key(|t| (t.deadline, t.slot));
        let round = sn.vclock;
        sn.vclock += 1;
        let width = sn.tasks.len().min(max_batch);
        let mut finished: Vec<u32> = Vec::new();
        for t in &mut sn.tasks[..width] {
            t.remaining = t.remaining.saturating_sub(quantum_rows);
            t.deadline = round + 1;
            if t.remaining == 0 {
                finished.push(t.slot);
            }
        }
        sn.tasks.retain(|t| t.remaining > 0);
        if !finished.is_empty() {
            self.finish_scans(eng, n, &finished);
        }
        // `finish_scans` cascades protocol work that can take the node
        // down or (in principle) queue more work; re-check before
        // re-arming the pump.
        let sn = &mut self.scan[n.idx()];
        if !sn.tasks.is_empty() && !sn.pump && eng.is_up(n) {
            sn.pump = true;
            self.set_app_timer(eng, n, quantum, TimerAction::ScanQuantum { node: n });
        }
    }

    /// Executes the queries whose scans completed this quantum in one
    /// shared table pass and submits each result through the normal
    /// leaf-submission path.
    fn finish_scans(&mut self, eng: &mut SeaweedEngine, n: NodeIdx, slots: &[u32]) {
        let mut live: Vec<u32> = Vec::new();
        for &s in slots {
            let bit = 1u64 << s;
            // Defensive: release purges queued tasks eagerly, but a
            // query that died or already submitted between queueing and
            // finishing must not execute.
            if !self.queries[s as usize].active || self.exec_pending[n.idx()] & bit == 0 {
                continue;
            }
            self.exec_pending[n.idx()] &= !bit;
            if self.submitted[n.idx()] & bit != 0 {
                continue;
            }
            live.push(s);
        }
        if live.is_empty() {
            return;
        }
        let shared = live.len() > 1;
        let results = {
            let bounds: Vec<&seaweed_store::BoundQuery> = live
                .iter()
                .map(|&s| &self.queries[s as usize].bound)
                .collect();
            self.provider.execute_many(n.idx(), &bounds)
        };
        if shared {
            self.stats.shared_scan_batches += 1;
            self.stats.shared_scan_queries += live.len() as u64;
        }
        for (&slot, result) in live.iter().zip(results) {
            match result {
                Ok(agg) => {
                    if shared {
                        self.timelines[slot as usize].shared_scans += 1;
                    }
                    self.submit_local_result(eng, n, slot, agg);
                }
                Err(_) => {
                    self.stats.exec_failures += 1;
                }
            }
        }
    }

    /// Storm-hygiene checks, run by `ChaosOracle` as invariant (7):
    /// every retired slot reclaimed, budget respected, free list
    /// consistent, every queued scan task references a live pending
    /// execution. Returns human-readable violations (empty = clean);
    /// cheap enough to run per-event at test scale. Call it between
    /// events.
    #[must_use]
    pub fn storm_invariant_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        if !self.retired.is_empty() {
            out.push(format!(
                "slots {:?} retired but not reclaimed between events",
                self.retired
            ));
        }
        if self.cfg.storm.is_none() {
            if !self.free_slots.is_empty() || !self.storm_queue.is_empty() {
                out.push("storm machinery engaged without storm mode".into());
            }
            return out;
        }
        if self.storm_in_flight() > self.storm_budget() {
            out.push(format!(
                "in-flight queries {} exceed budget {}",
                self.storm_in_flight(),
                self.storm_budget()
            ));
        }
        let mut seen = vec![false; self.queries.len()];
        for &s in &self.free_slots {
            let Some(q) = self.queries.get(s as usize) else {
                out.push(format!("free slot {s} out of range"));
                continue;
            };
            if seen[s as usize] {
                out.push(format!("slot {s} double-freed"));
            }
            seen[s as usize] = true;
            if q.active {
                out.push(format!("free slot {s} holds an active query"));
            }
        }
        for w in self.free_slots.windows(2) {
            if w[0] <= w[1] {
                out.push("free list not sorted descending".into());
            }
        }
        for (node, sn) in self.scan.iter().enumerate() {
            if !sn.tasks.is_empty() && !sn.pump {
                out.push(format!(
                    "node {node} has queued scan work but no pump timer"
                ));
            }
            for t in &sn.tasks {
                if t.remaining == 0 {
                    out.push(format!(
                        "node {node}: finished task for slot {} still queued",
                        t.slot
                    ));
                }
                if !self.queries[t.slot as usize].active {
                    out.push(format!("node {node}: scan task for dead slot {}", t.slot));
                }
                if self.exec_pending[node] & (1u64 << t.slot) == 0 {
                    out.push(format!(
                        "node {node}: scan task for slot {} without a pending execution",
                        t.slot
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use seaweed_overlay::OverlayConfig;
    use seaweed_sim::{NodeIdx, SimConfig, UniformTopology};
    use seaweed_store::Schema;
    use seaweed_types::{Duration, Time};

    use super::super::{
        gen_of, slot_of, QueryHandle, Seaweed, SeaweedConfig, SeaweedEngine, StormConfig,
        Submission, TimerAction, LOCAL_EXEC_DELAY,
    };
    use crate::provider::LiveTables;
    use crate::world::{boot_staggered, build_world, flag_fixture};

    const N: usize = 24;
    const T0: Time = Time(600_000_000);

    /// An all-up 24-endsystem storm world, joined and quiet at `T0`.
    fn world(storm: StormConfig) -> (SeaweedEngine, Seaweed<LiveTables>, Schema) {
        let (tables, schema) = flag_fixture(0..N as u32, 1);
        let (mut eng, mut sw) = build_world(
            Box::new(UniformTopology::new(N, Duration::from_millis(5))),
            9,
            SimConfig::default(),
            OverlayConfig::default(),
            SeaweedConfig {
                storm: Some(storm),
                ..Default::default()
            },
            tables,
        );
        boot_staggered(&mut eng, Duration::from_millis(300));
        sw.run_until(&mut eng, T0);
        assert_eq!(sw.overlay.num_joined(), N);
        (eng, sw, schema)
    }

    fn admit(
        sw: &mut Seaweed<LiveTables>,
        eng: &mut SeaweedEngine,
        schema: &Schema,
        sql: &str,
        ttl: Duration,
    ) -> QueryHandle {
        match sw.submit_query(eng, NodeIdx(0), sql, ttl, schema) {
            Ok(Submission::Admitted(h)) => h,
            other => panic!("not admitted: {other:?}"),
        }
    }

    /// An in-flight budget of one, with A admitted and B queued.
    fn one_admitted_one_queued(
        ttl: Duration,
    ) -> (SeaweedEngine, Seaweed<LiveTables>, QueryHandle, u64) {
        let (mut eng, mut sw, schema) = world(StormConfig {
            max_in_flight: 1,
            ..StormConfig::default()
        });
        let sql_a = "SELECT SUM(v) FROM T WHERE flag = 1";
        let a = admit(&mut sw, &mut eng, &schema, sql_a, ttl);
        let b = "SELECT COUNT(*) FROM T WHERE flag = 1";
        let Ok(Submission::Queued(ticket)) = sw.submit_query(&mut eng, NodeIdx(0), b, ttl, &schema)
        else {
            panic!("B is queued behind A");
        };
        (eng, sw, a, ticket)
    }

    /// The one admission since the last drain is the queued `ticket`, in
    /// A's slot at the next generation; returns its handle.
    fn admitted(sw: &mut Seaweed<LiveTables>, a: QueryHandle, ticket: u64) -> QueryHandle {
        let admitted = sw.drain_admissions();
        let [(t, b)] = admitted[..] else {
            panic!("one admission, not {admitted:?}");
        };
        let want = (ticket, slot_of(a), gen_of(a) + 1);
        assert_eq!((t, slot_of(b), gen_of(b)), want);
        b
    }

    /// Retiring a query does not recycle its slot: until the retiring
    /// event or call reclaims it, the slot still names the retired
    /// query, its handle is still live and nothing is admitted.
    #[test]
    fn a_retired_slot_names_its_query_until_reclaimed() {
        let (mut eng, mut sw, a, ticket) = one_admitted_one_queued(Duration::from_hours(1));
        let slot = slot_of(a);
        let id = sw.query(a).id;
        sw.expire_query(slot);
        assert_eq!(sw.queries[slot as usize].id, id, "the slot still holds A");
        assert_eq!(sw.live_slot(a), Some(slot));
        assert!(sw.drain_admissions().is_empty(), "nothing admitted yet");
        assert!(!sw.storm_invariant_violations().is_empty());

        sw.reclaim_slots(&mut eng);
        admitted(&mut sw, a, ticket);
        assert_eq!(sw.live_slot(a), None);
        assert!(sw.storm_invariant_violations().is_empty());
    }

    /// A TTL expiry delivered through `dispatch` admits the queued
    /// submission before `dispatch` returns, and no event leaves a
    /// retired slot unreclaimed.
    #[test]
    fn a_ttl_expiry_admits_the_queue_within_its_event() {
        let ttl = Duration::from_secs(30);
        let (mut eng, mut sw, a, ticket) = one_admitted_one_queued(ttl);
        let expires = eng.now() + ttl;
        while sw.live_slot(a).is_some() {
            let (_, ev) = eng
                .next_event_before(expires + Duration::from_secs(1))
                .expect("A's expiry fires at its TTL");
            sw.dispatch(&mut eng, ev);
            assert_eq!(sw.storm_invariant_violations(), Vec::<String>::new());
        }
        assert_eq!(eng.now(), expires);
        let b = admitted(&mut sw, a, ticket);
        assert!(sw.query(b).active);
    }

    /// Slot recycling against parked timer actions: query A is retired
    /// while local executions and reissue timers armed for it are still
    /// pending, and B takes its slot at once. No release-time purge walks
    /// the action table any more; what keeps A's timers off B is the
    /// generation in the handle each action carries. Every one of them
    /// must be dropped at its fire (and counted), and B must execute
    /// once per endsystem, on the schedule of its own dissemination.
    #[test]
    fn a_recycled_slot_is_not_served_by_its_last_tenants_timers() {
        let (mut eng, mut sw, schema) = world(StormConfig::default());
        let ttl = Duration::from_hours(4);
        let a = admit(
            &mut sw,
            &mut eng,
            &schema,
            "SELECT SUM(v) FROM T WHERE flag = 1",
            ttl,
        );
        // Step to the first instant at which every endsystem has the
        // query and nothing of it is on the wire: what is left of A is
        // then timers only.
        let in_flight = |eng: &SeaweedEngine| {
            let m = eng.metrics();
            let gauge = |name| m.gauge(name).expect("engine gauge") as u64;
            // The one detached timer is A's expiry.
            gauge("sim.queue.depth") - gauge("sim.queue.armed_timers") - 1
        };
        let knows = |sw: &Seaweed<LiveTables>| {
            let bit = 1u64 << slot_of(a);
            sw.knows_query.iter().all(|w| w & bit != 0)
        };
        while !(knows(&sw) && in_flight(&eng) == 0) {
            let (_, ev) = eng
                .next_event_before(T0 + Duration::from_secs(1))
                .expect("A goes quiet within a second");
            sw.dispatch(&mut eng, ev);
        }
        let parked = |sw: &Seaweed<LiveTables>, pick: fn(&TimerAction) -> Option<u32>| {
            sw.timers
                .iter()
                .filter(|(_, act)| pick(act) == Some(a))
                .count() as u64
        };
        let executions = parked(&sw, |act| match *act {
            TimerAction::ExecuteLocal { query, .. } => Some(query),
            _ => None,
        });
        let reissues = parked(&sw, |act| match *act {
            TimerAction::DissemTimeout { task, .. } => Some(task.1),
            _ => None,
        });
        assert!(executions > 0 && reissues > 0, "{executions} / {reissues}");

        let drops_before = sw.stats.stale_handle_drops;
        sw.retire_query(&mut eng, a);
        let admitted_at = eng.now();
        let b = admit(
            &mut sw,
            &mut eng,
            &schema,
            "SELECT COUNT(*) FROM T WHERE flag = 1",
            ttl,
        );
        assert_eq!(slot_of(b), slot_of(a), "B recycles A's slot");
        assert_ne!(a, b);
        sw.run_until(&mut eng, admitted_at + Duration::from_secs(60));

        assert_eq!(
            sw.stats.stale_handle_drops - drops_before,
            executions + reissues,
            "each of A's pending fires is dropped, and nothing else is"
        );
        assert_eq!(sw.query(b).rows(), N as u64);
        assert_eq!(sw.timeline(b).submissions, N as u64, "once per endsystem");
        let first = sw.query(b).progress.first().expect("B has results").0;
        assert!(
            first >= admitted_at + LOCAL_EXEC_DELAY,
            "B executed at {first:?}, before its own delay from {admitted_at:?}"
        );
        crate::oracle::ChaosOracle::new(N as u64).assert_clean(&sw, &eng);
    }

    /// The action slab returns to baseline: queries come and go through
    /// two slots — expiring on their TTL, retired early, with an
    /// endsystem bouncing in between — and 200 simulated seconds after
    /// the last TTL has passed, what is parked is what was parked before
    /// the first query: each endsystem's metadata-push timer.
    #[test]
    fn the_action_slab_returns_to_its_standing_timers() {
        let (mut eng, mut sw, schema) = world(StormConfig {
            max_in_flight: 2,
            ..StormConfig::default()
        });
        let standing = sw.timers.len();
        assert_eq!(standing, N, "one push timer per endsystem");
        eng.schedule_down(T0 + Duration::from_secs(20), NodeIdx(5));
        eng.schedule_up(T0 + Duration::from_secs(70), NodeIdx(5));
        let mut live = Vec::new();
        for i in 0..6u64 {
            let sql = format!("SELECT SUM(v) FROM T WHERE flag < {}", 2 + i);
            let ttl = Duration::from_secs(60 + 30 * i);
            if let Submission::Admitted(h) = sw
                .submit_query(&mut eng, NodeIdx(0), &sql, ttl, &schema)
                .expect("the query parses")
            {
                live.push(h);
            }
        }
        assert_eq!(live.len(), 2);
        // One of the two is retired early; its expiry stays parked until
        // its TTL and is dropped there.
        sw.run_until(&mut eng, T0 + Duration::from_secs(10));
        assert!(sw.timers.len() > standing);
        sw.retire_query(&mut eng, live[0]);
        // Admission chains on expiry; second by second to the last one.
        while sw.storm_in_flight() + sw.storm_queue_len() > 0 {
            assert!(eng.now() < T0 + Duration::from_hours(1), "the storm drains");
            let next = eng.now() + Duration::from_secs(1);
            sw.run_until(&mut eng, next);
        }
        assert_eq!(sw.stats.storm_admitted, 6);
        // (The retired query's TTL, 60 s from `T0`, passed long ago.)
        let settled = eng.now() + Duration::from_secs(200);
        sw.run_until(&mut eng, settled);
        assert_eq!(sw.timers.len(), standing);
        assert!(sw
            .timers
            .iter()
            .all(|(_, act)| matches!(act, TimerAction::MetaPush { .. })));
    }
}
