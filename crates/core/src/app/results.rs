//! Result aggregation (paper §3.4).
//!
//! Each available endsystem executes the query exactly and submits its
//! partial aggregate into the query's aggregation tree. The tree is
//! built from the leaves upward: an endsystem iterates the vertex parent
//! function `V` from its own id until it leaves its own region of
//! responsibility, and submits there. Interior vertices are replica
//! groups (primary + m−1 backups); a primary stores per-child versioned
//! partial aggregates (exactly-once), replicates to its backups before
//! acknowledging, and propagates its merged aggregate to its parent
//! vertex. The root vertex's key is the queryId; its primary pushes the
//! merged result to the query origin as it improves.

use seaweed_overlay::OverlayEvents;
use seaweed_sim::{NodeIdx, TrafficClass};
use seaweed_store::Aggregate;
use seaweed_types::{Id, Time};

use super::backoff::retry_backoff;
use super::{
    ArmedRetry, PendingSubmit, QueryHandle, Seaweed, SeaweedEngine, SeaweedMsg, TimerAction,
    VertexState, LOCAL_EXEC_DELAY, M_VERTEX,
};
use crate::provider::DataProvider;
use crate::vertex::parent_vertex;
use crate::wire;

impl<P: DataProvider> Seaweed<P> {
    /// Local execution finished (modelled by the exec-delay timer):
    /// submit the partial aggregate into the aggregation tree. For
    /// continuous queries this also schedules the next epoch.
    pub(crate) fn execute_and_submit(
        &mut self,
        eng: &mut SeaweedEngine,
        n: NodeIdx,
        h: QueryHandle,
    ) {
        let bit = 1u64 << h;
        if !eng.is_up(n) || !self.overlay.is_joined(n) {
            self.exec_pending[n.idx()] &= !bit;
            return; // went down meanwhile; will resubmit on rejoin
        }
        if !self.queries[h as usize].active {
            self.exec_pending[n.idx()] &= !bit;
            return;
        }
        match self.queries[h as usize].kind {
            super::QueryKind::OneShot => {
                if self.submitted[n.idx()] & bit != 0 {
                    self.exec_pending[n.idx()] &= !bit;
                    return;
                }
                // Storm mode: a contended endsystem (another query's
                // execution pending here, or a scan queue draining)
                // defers to the fair quantum scheduler; the pending bit
                // stays set until the queued scan completes. Uncontended
                // executions — always the case with a single query —
                // take the baseline path below untouched.
                if self.scan_contended(n, h) {
                    self.enqueue_scan(eng, n, h);
                    return;
                }
                self.exec_pending[n.idx()] &= !bit;
                let agg = match self
                    .provider
                    .execute(n.idx(), &self.queries[h as usize].bound)
                {
                    Ok(agg) => agg,
                    Err(_) => {
                        // Dropped contribution; surfaces as incompleteness
                        // at the origin rather than crashing the run.
                        self.stats.exec_failures += 1;
                        return;
                    }
                };
                self.submit_local_result(eng, n, h, agg);
            }
            super::QueryKind::Continuous { interval } => {
                self.execute_continuous_epoch(eng, n, h, interval);
            }
            super::QueryKind::View { .. } => {
                // View queries are answered during dissemination from
                // replicated values; there is no execution phase.
                self.exec_pending[n.idx()] &= !bit;
            }
        }
    }

    /// Submits a finished local one-shot execution into the aggregation
    /// tree: the shared tail of the inline path and the storm
    /// scheduler's batched completions.
    pub(crate) fn submit_local_result(
        &mut self,
        eng: &mut SeaweedEngine,
        n: NodeIdx,
        h: QueryHandle,
        agg: Aggregate,
    ) {
        let my_id = self.overlay.id_of(n);
        let target = self.leaf_vertex(n, h);
        self.stats.result_submissions += 1;
        self.timelines[h as usize].submissions += 1;
        self.submit_to_vertex(eng, n, h, target, my_id, 1, agg);
    }

    /// One epoch of a continuous query at one endsystem: re-bind `NOW()`
    /// to the current instant, execute, submit with the epoch as the
    /// version (so the aggregation tree's per-child versioning replaces
    /// the previous epoch exactly once), and arm the next epoch's timer.
    /// The exec-pending bit stays set while the query is active so the
    /// active-query list cannot double-schedule the loop.
    fn execute_continuous_epoch(
        &mut self,
        eng: &mut SeaweedEngine,
        n: NodeIdx,
        h: QueryHandle,
        interval: seaweed_types::Duration,
    ) {
        let q = &self.queries[h as usize];
        let epoch = eng.now().saturating_since(q.injected).as_micros() / interval.as_micros();
        let already = self.cont_epoch.get(n.0, h);
        if already != Some(epoch) {
            let now_secs = (eng.now().as_micros() / 1_000_000) as i64;
            // The text parsed and bound at injection; a re-bind only
            // varies NOW(), so failure here is an internal inconsistency
            // — skip the epoch (counted) instead of panicking, and let
            // the next epoch retry with a fresh binding.
            let rebound =
                seaweed_store::Query::parse(&q.text).and_then(|p| p.bind(&q.schema, now_secs));
            let bound = match rebound {
                Ok(b) => b,
                Err(_) => {
                    self.stats.internal_drops += 1;
                    self.arm_next_epoch(eng, n, h, epoch, interval);
                    return;
                }
            };
            match self.provider.execute(n.idx(), &bound) {
                Ok(agg) => {
                    self.cont_epoch.insert(n.0, h, epoch);
                    let my_id = self.overlay.id_of(n);
                    let target = self.leaf_vertex(n, h);
                    self.stats.result_submissions += 1;
                    self.timelines[h as usize].submissions += 1;
                    // Version = epoch + 2 keeps continuous versions above
                    // the initial one-shot-style version space.
                    self.submit_to_vertex(eng, n, h, target, my_id, epoch + 2, agg);
                }
                // This epoch's contribution is lost; the next epoch's
                // timer below retries with a fresh binding.
                Err(_) => self.stats.exec_failures += 1,
            }
        }
        self.arm_next_epoch(eng, n, h, epoch, interval);
    }

    /// Arms the next continuous-query epoch (with the configured jitter
    /// so epochs do not synchronize network-wide). One RNG draw per
    /// call, exactly as when this tail lived inline.
    fn arm_next_epoch(
        &mut self,
        eng: &mut SeaweedEngine,
        n: NodeIdx,
        h: QueryHandle,
        epoch: u64,
        interval: seaweed_types::Duration,
    ) {
        let q = &self.queries[h as usize];
        let next_at =
            q.injected + seaweed_types::Duration::from_micros((epoch + 1) * interval.as_micros());
        let jitter = seaweed_types::Duration::from_micros(rand::Rng::gen_range(
            &mut self.rng,
            0..=LOCAL_EXEC_DELAY.as_micros(),
        ));
        let delay = next_at.saturating_since(eng.now()) + LOCAL_EXEC_DELAY + jitter;
        self.set_app_timer(
            eng,
            n,
            delay,
            TimerAction::ExecuteLocal { node: n, query: h },
        );
    }

    /// The paper's leaf optimization: iterate V from the endsystem's own
    /// id until the vertex leaves this endsystem's region, and submit
    /// there (skipping the tree levels whose vertices we would own
    /// ourselves). The chosen vertex is **persisted** per (endsystem,
    /// query) — §3.4: "It then persists that vertexId with the query" —
    /// so resubmissions after churn update the same child slot rather
    /// than forking a second tree path.
    pub(crate) fn leaf_vertex(&mut self, n: NodeIdx, h: QueryHandle) -> Id {
        if let Some(v) = self.leaf_targets.get(n.0, h) {
            return v;
        }
        let qid = self.queries[h as usize].id;
        let b = self.overlay.config().b;
        let region = self.overlay.responsible_range(n);
        let mut v = self.overlay.id_of(n);
        let target = loop {
            match parent_vertex(qid, v, b) {
                None => break v, // reached the root key itself
                Some(p) if region.contains(p) => v = p,
                Some(p) => break p,
            }
        };
        self.leaf_targets.insert(n.0, h, target);
        target
    }

    /// Routes a submission toward a vertex and gives it a retry
    /// deadline, replacing whatever `from` still had pending under the
    /// same child key.
    #[allow(clippy::too_many_arguments)]
    fn submit_to_vertex(
        &mut self,
        eng: &mut SeaweedEngine,
        from: NodeIdx,
        h: QueryHandle,
        vertex: Id,
        child: Id,
        version: u64,
        agg: Aggregate,
    ) {
        let retry_at = eng.now() + self.cfg.result_retry;
        self.pending_submits.insert(
            (from.0, h, child.0),
            PendingSubmit {
                target_vertex: vertex,
                version,
                agg,
                attempts: 0,
                retry_at,
            },
        );
        let wire_h = self.live_handle(h);
        let evs = self.overlay.route(
            eng,
            from,
            vertex,
            SeaweedMsg::ResultSubmit {
                query: wire_h,
                vertex,
                child,
                version,
                agg,
            },
            wire::RESULT_SUBMIT,
        );
        self.arm_result_retry(eng, from, retry_at);
        self.cascade(eng, evs);
    }

    /// Makes sure `n`'s current retry timer fires no later than `deadline`.
    /// An ack disarms nothing — a timer that finds nothing due re-arms
    /// for what is left, or not at all — so in a loss-free run an
    /// endsystem arms one timer per ten seconds of submitting, however
    /// many submissions it makes. An earlier deadline (a first try behind
    /// a backed-off retry) arms a new one; the old fires as a no-op.
    fn arm_result_retry(&mut self, eng: &mut SeaweedEngine, n: NodeIdx, deadline: Time) {
        if self.retry_armed[n.idx()].is_some_and(|armed| armed.at <= deadline) {
            return;
        }
        let delay = deadline.saturating_since(eng.now());
        let tag = self.set_app_timer(eng, n, delay, TimerAction::ResultRetry { node: n });
        self.retry_armed[n.idx()] = Some(ArmedRetry {
            tag,
            at: eng.now() + delay,
        });
    }

    /// `n`'s retry timer fired: re-route every submission of `n` that is
    /// due and still unacked, in key order, each with capped exponential
    /// backoff to its next deadline, then re-arm for the earliest
    /// deadline left. Fixed-interval retries hammer a dead or
    /// partitioned-away primary every `result_retry`; doubling (to
    /// `result_retry_cap`) keeps the common fast recovery while bounding
    /// retransmissions across long outages. The jitter is drawn from the
    /// protocol's seeded RNG only when a retransmission actually
    /// happens, so loss-free runs consume identical RNG sequences to the
    /// pre-backoff protocol. A timer fired under `tag` that is not the
    /// one on record was superseded by an earlier deadline, and does
    /// nothing.
    pub(crate) fn on_result_retry(&mut self, eng: &mut SeaweedEngine, n: NodeIdx, tag: u64) {
        if self.retry_armed[n.idx()].is_none_or(|armed| armed.tag != tag) {
            return;
        }
        let now = eng.now();
        // `retry_armed[n]` names the timer that just fired until the
        // loop is done: a deadline at `now`, so no submission a
        // retransmission cascades into arms a second timer.
        debug_assert!(self.retry_armed[n.idx()].is_some_and(|t| t.at == now));
        for key in self.pending_submits.due_keys(n.0, now) {
            // An earlier retransmission's cascade may have acked this
            // one, or replaced it with a newer submission.
            let Some(p) = self.pending_submits.get_mut(&key) else {
                continue;
            };
            if p.retry_at > now {
                continue;
            }
            p.attempts += 1;
            p.retry_at = now
                + retry_backoff(
                    self.cfg.result_retry,
                    self.cfg.result_retry_cap,
                    p.attempts,
                    &mut self.rng,
                );
            let (vertex, version, agg) = (p.target_vertex, p.version, p.agg);
            let (_, h, child) = key;
            debug_assert!(self.queries[h as usize].active, "expiry clears submissions");
            self.stats.result_retries += 1;
            self.timelines[h as usize].result_retries += 1;
            let wire_h = self.live_handle(h);
            let evs = self.overlay.route(
                eng,
                n,
                vertex,
                SeaweedMsg::ResultSubmit {
                    query: wire_h,
                    vertex,
                    child: Id(child),
                    version,
                    agg,
                },
                wire::RESULT_SUBMIT,
            );
            self.cascade(eng, evs);
        }
        self.retry_armed[n.idx()] = None;
        if let Some(next) = self.pending_submits.earliest_retry(n.0) {
            self.arm_result_retry(eng, n, next);
        }
    }

    /// A submission arrived at the (believed) primary for `vertex`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_result_submit(
        &mut self,
        eng: &mut SeaweedEngine,
        submitter: NodeIdx,
        at: NodeIdx,
        h: QueryHandle,
        vertex: Id,
        child: Id,
        version: u64,
        agg: Aggregate,
    ) -> OverlayEvents<SeaweedMsg> {
        if !self.queries[h as usize].active {
            return OverlayEvents::new();
        }
        self.learn_query(eng, at, h);

        // Ensure the vertex group exists and `at` is a member (a fresh
        // primary after churn pulls state from a surviving backup —
        // charged as one replication transfer). The vertex is looked up
        // once; from here on it is addressed by its slot.
        let slot = self.ensure_vertex_member(eng, at, h, vertex);
        let state = self.vertices.at_mut(slot);
        // A stale duplicate (older version of a known child) is dropped.
        match state.children.entry(child) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert((version, agg));
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                if version >= e.get().0 {
                    e.insert((version, agg));
                }
            }
        }
        let size = wire::vertex_replicate(state.children.len());

        // Replicate to backups before acknowledging (paper ordering).
        // Every backup listed is a holder already, by the primary's own
        // list, and vertex contents live in the shared store: delivery
        // would find `holders.contains(&b)` and merge nothing. So the
        // push goes through the engine's send path — charged, cut, lost
        // and duplicated exactly as a delivered message — without
        // becoming an event.
        for i in 1..self.vertices.at(slot).holders.len() {
            let b = self.vertices.at(slot).holders[i];
            if b != at && eng.is_up(b) {
                debug_assert!(self.replicate_is_noop(b, h, vertex));
                self.stats.vertex_replications += 1;
                self.stats.replicas_accounted += 1;
                self.overlay
                    .send_app_accounted(eng, at, b, size, TrafficClass::Query);
            }
        }
        let wire_h = self.live_handle(h);

        // Ack the submitter.
        if submitter != at {
            self.overlay.send_app(
                eng,
                at,
                submitter,
                SeaweedMsg::ResultAck {
                    query: wire_h,
                    vertex,
                    child,
                    version,
                },
                wire::RESULT_ACK,
                TrafficClass::Query,
            );
        } else {
            self.on_result_ack(at, h, vertex, child, version);
        }

        // Propagate the merged aggregate upward.
        self.propagate_up(eng, at, h, vertex, slot);
        OverlayEvents::new()
    }

    /// Merges the children of the vertex in `slot` and pushes the result
    /// to its parent vertex (or the query origin at the root).
    fn propagate_up(
        &mut self,
        eng: &mut SeaweedEngine,
        at: NodeIdx,
        h: QueryHandle,
        vertex: Id,
        slot: u32,
    ) {
        let qid = self.queries[h as usize].id;
        let b = self.overlay.config().b;
        let empty = Aggregate::empty(self.queries[h as usize].bound.agg);
        let state = self.vertices.at_mut(slot);
        let merged = state.merged(empty);
        state.out_version += 1;
        let version = state.out_version;

        match parent_vertex(qid, vertex, b) {
            None => {
                // This IS the root vertex: push to the origin.
                let origin = self.queries[h as usize].origin;
                self.stats.results_at_origin += 1;
                if origin == at {
                    self.on_result_at_origin(eng, at, h, merged, version);
                } else {
                    let wire_h = self.live_handle(h);
                    self.overlay.send_app(
                        eng,
                        at,
                        origin,
                        SeaweedMsg::ResultToOrigin {
                            query: wire_h,
                            agg: merged,
                            version,
                        },
                        wire::RESULT_SUBMIT,
                        TrafficClass::Query,
                    );
                }
            }
            Some(parent) => {
                if self.overlay.responsible_range(at).contains(parent) {
                    // We own the parent vertex too: fold in directly (we
                    // are its primary); its own propagation continues the
                    // climb.
                    self.merge_into_owned_vertex(eng, at, h, parent, vertex, version, merged);
                } else {
                    self.submit_to_vertex(eng, at, h, parent, vertex, version, merged);
                }
            }
        }
    }

    /// Directly folds an aggregate into a vertex this node owns (no
    /// routing round-trip for self-owned parents).
    #[allow(clippy::too_many_arguments)]
    fn merge_into_owned_vertex(
        &mut self,
        eng: &mut SeaweedEngine,
        at: NodeIdx,
        h: QueryHandle,
        vertex: Id,
        child: Id,
        version: u64,
        agg: Aggregate,
    ) {
        let evs = self.on_result_submit(eng, at, at, h, vertex, child, version, agg);
        self.cascade(eng, evs);
    }

    /// An ack reached the submitter: clear the pending retransmission and
    /// mark leaf completion.
    pub(crate) fn on_result_ack(
        &mut self,
        at: NodeIdx,
        h: QueryHandle,
        vertex: Id,
        child: Id,
        version: u64,
    ) {
        let clear = match self.pending_submits.get(&(at.0, h, child.0)) {
            Some(p) => p.target_vertex == vertex && p.version <= version,
            None => false,
        };
        if clear {
            self.pending_submits.remove(&(at.0, h, child.0));
        }
        // A one-shot leaf submission (child == our own id) is now
        // durable: never resubmit, even across availability sessions.
        // Continuous queries keep re-executing, so the bit stays clear.
        if child == self.overlay.id_of(at)
            && self.queries[h as usize].kind == super::QueryKind::OneShot
        {
            self.submitted[at.idx()] |= 1 << h;
        }
    }

    /// Backup received vertex state (contents live in the shared store;
    /// membership is what matters here).
    pub(crate) fn on_vertex_replicate(&mut self, at: NodeIdx, h: QueryHandle, vertex: Id) {
        let Some(state) = self.vertices.get_mut(&(h, vertex)) else {
            return;
        };
        if !state.holders.contains(&at) {
            state.holders.push(at);
            self.node_vertices[at.idx()].push((h, vertex));
        }
    }

    /// Would [`Seaweed::on_vertex_replicate`] at `at` change nothing? The
    /// condition under which a replica push is accounted instead of
    /// delivered, re-derived in debug builds at every one.
    fn replicate_is_noop(&self, at: NodeIdx, h: QueryHandle, vertex: Id) -> bool {
        self.vertices
            .get(&(h, vertex))
            .is_none_or(|state| state.holders.contains(&at))
    }

    /// Makes sure a vertex group exists with `at` as a member, recruiting
    /// backups on creation; returns the vertex's slot in the store.
    fn ensure_vertex_member(
        &mut self,
        eng: &mut SeaweedEngine,
        at: NodeIdx,
        h: QueryHandle,
        vertex: Id,
    ) -> u32 {
        let Some(slot) = self.vertices.slot(&(h, vertex)) else {
            let mut state = VertexState::default();
            state.holders.push(at);
            let slot = self.vertices.insert((h, vertex), state);
            self.node_vertices[at.idx()].push((h, vertex));
            // Recruit m-1 backups: the next-closest live nodes to the
            // vertex key (from our leafset view).
            let members = self.overlay.replica_set(at, self.cfg.k_metadata);
            let backups = members.iter().copied().filter(|&x| x != at);
            let wire_h = self.live_handle(h);
            for bkp in backups.take(M_VERTEX - 1) {
                self.stats.vertex_replications += 1;
                self.overlay.send_app(
                    eng,
                    at,
                    bkp,
                    SeaweedMsg::VertexReplicate {
                        query: wire_h,
                        vertex,
                    },
                    wire::vertex_replicate(0),
                    TrafficClass::Query,
                );
            }
            return slot;
        };
        let state = self.vertices.at_mut(slot);
        if !state.holders.contains(&at) {
            // New primary after churn: pull state from a surviving
            // member (charged as one replication-sized transfer).
            // Prefer a member we can actually reach — across a
            // partition, an up-but-unreachable survivor cannot serve
            // the pull (the transfer would be cut at the boundary).
            let src = state
                .holders
                .iter()
                .copied()
                .find(|&x| x != at && eng.is_up(x) && eng.reachable(at, x))
                .or_else(|| {
                    state
                        .holders
                        .iter()
                        .copied()
                        .find(|&x| x != at && eng.is_up(x))
                });
            state.holders.insert(0, at);
            let children = state.children.len();
            self.node_vertices[at.idx()].push((h, vertex));
            if let Some(src) = src {
                self.stats.vertex_replications += 1;
                let wire_h = self.live_handle(h);
                self.overlay.send_app(
                    eng,
                    src,
                    at,
                    SeaweedMsg::VertexReplicate {
                        query: wire_h,
                        vertex,
                    },
                    wire::vertex_replicate(children),
                    TrafficClass::Query,
                );
            }
        }
        slot
    }

    /// Repairs every vertex group `failed` belonged to: drop it from the
    /// holder set; if members survive, one of them recruits a
    /// replacement; if none do, the state is lost (the paper's
    /// low-probability window).
    pub(crate) fn repair_vertices_of(&mut self, eng: &mut SeaweedEngine, failed: NodeIdx) {
        // A crash-with-amnesia already pruned the holder sets and stashed
        // the group list; fold the stash in so survivors still recruit
        // replacements back up to the replication factor.
        let mut held = std::mem::take(&mut self.node_vertices[failed.idx()]);
        held.extend(std::mem::take(&mut self.amnesia_vertices[failed.idx()]));
        for (h, vertex) in held {
            let Some(state) = self.vertices.get_mut(&(h, vertex)) else {
                continue;
            };
            state.holders.retain(|&x| x != failed);
            let Some(survivor) = state.holders.iter().copied().find(|&x| eng.is_up(x)) else {
                if !state.children.is_empty() {
                    self.stats.vertex_states_lost += 1;
                    // The holders still listed are all down; their
                    // membership goes with the state, or a vertex later
                    // recreated under this key would inherit them.
                    let lost = self.vertices.remove(&(h, vertex));
                    for x in lost.into_iter().flat_map(|s| s.holders) {
                        self.node_vertices[x.idx()].retain(|&e| e != (h, vertex));
                    }
                }
                continue;
            };
            let children = state.children.len();
            if state.holders.len() < M_VERTEX {
                // Recruit a replacement near the vertex key.
                let replacement = self.overlay.closest_joined(vertex, M_VERTEX + 2).find(|x| {
                    !state.holders.contains(x) && eng.is_up(*x) && eng.reachable(survivor, *x)
                });
                if let Some(r) = replacement {
                    state.holders.push(r);
                    self.node_vertices[r.idx()].push((h, vertex));
                    self.stats.vertex_replications += 1;
                    let wire_h = self.live_handle(h);
                    self.overlay.send_app(
                        eng,
                        survivor,
                        r,
                        SeaweedMsg::VertexReplicate {
                            query: wire_h,
                            vertex,
                        },
                        wire::vertex_replicate(children),
                        TrafficClass::Query,
                    );
                }
            }
        }
    }

    /// The merged result reached the query origin.
    pub(crate) fn on_result_at_origin(
        &mut self,
        eng: &mut SeaweedEngine,
        at: NodeIdx,
        h: QueryHandle,
        agg: Aggregate,
        version: u64,
    ) {
        let q = &mut self.queries[h as usize];
        debug_assert_eq!(q.origin, at);
        // The root vertex's out-version orders updates: late reordered
        // deliveries must not regress the result. (For one-shot queries
        // this makes the origin's row count monotone; for continuous
        // queries newer epochs may legitimately shrink it.)
        if version > q.latest_version || q.latest.is_none() {
            q.latest = Some(agg);
            q.latest_version = version;
            q.progress.push((eng.now(), agg.rows, agg.finish()));
            self.timelines[h as usize].record_result(eng.now(), agg.rows);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use seaweed_overlay::OverlayConfig;
    use seaweed_sim::{
        Event, FaultPlan, NodeIdx, OutageSpec, PartitionSpec, SimConfig, UniformTopology,
    };
    use seaweed_types::{Duration, Time};

    use super::super::storage::SubmitKey;
    use super::super::{Seaweed, SeaweedConfig};
    use crate::provider::LiveTables;
    use crate::world::{boot_staggered, build_world, flag_fixture};

    const N: usize = 30;
    const BASE: Duration = Duration(2_000_000);
    const CAP: Duration = Duration(64_000_000);

    /// What one unacked submission is owed, by the reference: a
    /// retransmission at `due` unless it is acked, replaced or dies with
    /// its endsystem first.
    #[derive(Clone, Copy, Debug)]
    struct Owed {
        version: u64,
        attempts: u32,
        due: Time,
    }

    /// The reference for the per-endsystem retry timer: one deadline per
    /// `(node, query, child)`, what a timer per submission would keep.
    /// Called after every delivered event, it reads what the event did to
    /// the pending submissions and holds the protocol to the deadlines:
    /// a retransmission happens at the instant it was due and nowhere
    /// else, and nothing is left waiting past its deadline.
    #[derive(Default)]
    struct Deadlines {
        owed: BTreeMap<SubmitKey, Owed>,
        retransmissions: u64,
        /// Submissions gone after the event at their deadline: either
        /// acked just in time, or retransmitted to a primary so close
        /// that the ack came back within the event.
        settled_when_due: u64,
    }

    impl Deadlines {
        fn observe(&mut self, sw: &Seaweed<LiveTables>, now: Time) {
            let mut owed = BTreeMap::new();
            for key in sw.pending_submits.keys() {
                let p = sw.pending_submits.get(&key).expect("listed key");
                let entry = match self.owed.get(&key) {
                    // Untouched by this event.
                    Some(&was)
                        if (was.version, was.attempts, was.due)
                            == (p.version, p.attempts, p.retry_at) =>
                    {
                        was
                    }
                    // Retransmitted by this event: then it was due now,
                    // and its next deadline is a backoff away.
                    Some(&was) if was.version == p.version && p.attempts == was.attempts + 1 => {
                        assert_eq!(was.due, now, "{key:?} retransmitted off its deadline");
                        let backed = CAP.min(Duration(BASE.0 << p.attempts.min(32)));
                        let wait = p.retry_at.saturating_since(now);
                        assert!(
                            backed <= wait && wait <= backed + Duration(BASE.0 / 2),
                            "{key:?}: attempt {} backs off {wait:?}",
                            p.attempts
                        );
                        self.retransmissions += 1;
                        Owed {
                            version: p.version,
                            attempts: p.attempts,
                            due: p.retry_at,
                        }
                    }
                    // Submitted by this event: first under its key, a
                    // newer version, or the same one over again.
                    _ => {
                        assert_eq!(p.attempts, 0, "{key:?}");
                        assert_eq!(p.retry_at, now + BASE, "{key:?}");
                        Owed {
                            version: p.version,
                            attempts: 0,
                            due: p.retry_at,
                        }
                    }
                };
                assert!(
                    entry.due >= now,
                    "{key:?} was due at {:?} and still waits at {now:?}",
                    entry.due
                );
                owed.insert(key, entry);
            }
            self.settled_when_due += self
                .owed
                .iter()
                .filter(|(key, was)| was.due == now && !owed.contains_key(key))
                .count() as u64;
            self.owed = owed;
        }
    }

    /// The `backoff.rs` scenario — a third of the population behind a
    /// two-minute partition, so deadlines back off to the cap while first
    /// tries keep arriving beside them — under `loss`, with two clean
    /// outages on top so that endsystems die holding armed timers.
    /// Returns the retransmissions, the timers an earlier deadline
    /// superseded, and how many of those fired.
    fn retransmissions_under(loss: f64, seed: u64) -> (u64, usize, usize) {
        let (tables, schema) = flag_fixture(0..N as u32, 1);
        let outage = |members: Vec<u32>, down: u64, up: u64| OutageSpec {
            members,
            down_at: Time::from_secs(down),
            up_at: Time::from_secs(up),
            amnesia: false,
        };
        let plan = FaultPlan {
            partitions: vec![PartitionSpec {
                members: (20..N as u32).collect(),
                from: Time::from_secs(905),
                until: Time::from_secs(1025),
            }],
            outages: vec![
                outage(vec![3, 7, 24], 914, 960),
                outage(vec![5, 12, 21], 1040, 1100),
            ],
            ..FaultPlan::default()
        };
        let (mut eng, mut sw) = build_world(
            Box::new(UniformTopology::new(N, Duration::from_millis(5))),
            seed,
            SimConfig {
                loss_rate: loss,
                faults: Some(plan),
                ..SimConfig::default()
            },
            OverlayConfig::default(),
            SeaweedConfig {
                result_retry: BASE,
                result_retry_cap: CAP,
                ..Default::default()
            },
            tables,
        );
        boot_staggered(&mut eng, Duration::from_millis(700));
        sw.run_until(&mut eng, Time::from_secs(910));
        for (origin, sql) in [
            (0, "SELECT SUM(v) FROM T WHERE flag = 1"),
            (9, "SELECT COUNT(*) FROM T WHERE flag = 1"),
            (26, "SELECT MAX(v) FROM T WHERE flag = 1"),
        ] {
            sw.inject_query(
                &mut eng,
                NodeIdx(origin),
                sql,
                Duration::from_hours(4),
                &schema,
            )
            .expect("the query parses and binds");
        }
        let mut reference = Deadlines::default();
        // First tries that came due before the retry their endsystem's
        // timer was armed for: the case that needs a new timer. The one
        // it supersedes stays armed, and must fire as a no-op.
        let (mut superseded, mut fired) = (Vec::new(), 0);
        while let Some((now, ev)) = eng.next_event_before(Time::from_secs(1500)) {
            let stale = matches!(ev, Event::Timer { tag, .. } if superseded.contains(&tag));
            let before = sw.retry_armed.clone();
            let (retries, sent) = (sw.stats.result_retries, eng.messages_sent);
            sw.dispatch(&mut eng, ev);
            if stale {
                fired += 1;
                let after = (sw.stats.result_retries, eng.messages_sent);
                assert_eq!(after, (retries, sent), "a superseded timer acted");
            }
            let moved = before
                .iter()
                .zip(&sw.retry_armed)
                .filter_map(|pair| match pair {
                    (Some(b), Some(a)) if b.at > now && a.at < b.at => Some(b.tag),
                    _ => None,
                });
            superseded.extend(moved);
            reference.observe(&sw, now);
        }
        let unseen = sw.stats.result_retries - reference.retransmissions;
        assert!(unseen <= reference.settled_when_due, "{unseen} stray");
        (reference.retransmissions, superseded.len(), fired)
    }

    #[test]
    fn retransmission_instants_are_those_of_one_deadline_per_submission() {
        let (mut superseded, mut superseded_fired) = (0, 0);
        for (loss, seed) in [(0.05, 11), (0.1, 12), (0.2, 13), (0.2, 14)] {
            let (retransmissions, moved, fired) = retransmissions_under(loss, seed);
            assert!(
                retransmissions >= 20,
                "loss {loss}: only {retransmissions} retransmissions to compare"
            );
            superseded += moved;
            superseded_fired += fired;
        }
        assert!(
            superseded > 0,
            "no timer ever had to move to an earlier deadline"
        );
        assert!(superseded_fired > 0, "no superseded timer ever fired");
    }
}
