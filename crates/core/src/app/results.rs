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
use seaweed_types::Id;

use super::{
    PendingSubmit, QueryHandle, Seaweed, SeaweedEngine, SeaweedMsg, TimerAction, VertexState,
    LOCAL_EXEC_DELAY, M_VERTEX,
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

    /// Routes a (re)submission toward a vertex and arms the retry timer.
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
        self.pending_submits.insert(
            (from.0, h, child.0),
            PendingSubmit {
                target_vertex: vertex,
                version,
                agg,
                attempts: 0,
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
        self.set_app_timer(
            eng,
            from,
            self.cfg.result_retry,
            TimerAction::ResultRetry {
                node: from,
                query: h,
                child,
                version,
            },
        );
        self.cascade(eng, evs);
    }

    /// Retry timer: if the submission is still unacked, re-route it and
    /// re-arm with capped exponential backoff. Fixed-interval retries
    /// hammer a dead or partitioned-away primary every `result_retry`;
    /// doubling (to `result_retry_cap`) keeps the common fast recovery
    /// while bounding retransmissions across long outages. The jitter is
    /// drawn from the protocol's seeded RNG only when a retransmission
    /// actually happens, so loss-free runs consume identical RNG
    /// sequences to the pre-backoff protocol.
    pub(crate) fn on_result_retry(
        &mut self,
        eng: &mut SeaweedEngine,
        n: NodeIdx,
        h: QueryHandle,
        child: Id,
        version: u64,
    ) {
        let Some(p) = self.pending_submits.get_mut(&(n.0, h, child.0)) else {
            return; // acked
        };
        if p.version != version {
            return; // superseded by a newer submission
        }
        if !eng.is_up(n) || !self.queries[h as usize].active {
            return;
        }
        p.attempts += 1;
        let (vertex, agg, attempts) = (p.target_vertex, p.agg, p.attempts);
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
                child,
                version,
                agg,
            },
            wire::RESULT_SUBMIT,
        );
        let delay = self.retry_backoff(attempts);
        self.set_app_timer(
            eng,
            n,
            delay,
            TimerAction::ResultRetry {
                node: n,
                query: h,
                child,
                version,
            },
        );
        self.cascade(eng, evs);
    }

    /// Delay until retransmission `attempts + 1`; see
    /// [`backoff::retry_backoff`](super::backoff::retry_backoff). One
    /// RNG draw per call, exactly as before the extraction.
    fn retry_backoff(&mut self, attempts: u32) -> seaweed_types::Duration {
        super::backoff::retry_backoff(
            self.cfg.result_retry,
            self.cfg.result_retry_cap,
            attempts,
            &mut self.rng,
        )
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
        // charged as one replication transfer).
        self.ensure_vertex_member(eng, at, h, vertex);

        let Some(state) = self.vertices.get_mut(&(h, vertex)) else {
            // `ensure_vertex_member` just created or joined the group; a
            // miss here is an internal inconsistency — drop the
            // submission (counted) and let the retry timer re-drive it.
            self.stats.internal_drops += 1;
            return OverlayEvents::new();
        };
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
        let children_count = state.children.len();

        // Replicate to backups before acknowledging (paper ordering).
        let holders = state.holders.clone();
        let size = wire::vertex_replicate(children_count);
        let wire_h = self.live_handle(h);
        for b in holders.iter().skip(1) {
            if *b != at && eng.is_up(*b) {
                self.stats.vertex_replications += 1;
                self.overlay.send_app(
                    eng,
                    at,
                    *b,
                    SeaweedMsg::VertexReplicate {
                        query: wire_h,
                        vertex,
                    },
                    size,
                    TrafficClass::Query,
                );
            }
        }

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
        self.propagate_up(eng, at, h, vertex);
        OverlayEvents::new()
    }

    /// Merges a vertex's children and pushes the result to its parent
    /// vertex (or the query origin at the root).
    fn propagate_up(&mut self, eng: &mut SeaweedEngine, at: NodeIdx, h: QueryHandle, vertex: Id) {
        let qid = self.queries[h as usize].id;
        let b = self.overlay.config().b;
        let empty = Aggregate::empty(self.queries[h as usize].bound.agg);
        let Some(state) = self.vertices.get_mut(&(h, vertex)) else {
            // Every caller holds the vertex when it calls; dropping the
            // propagation (counted) loses one push that the next child
            // submission regenerates.
            self.stats.internal_drops += 1;
            return;
        };
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

    /// Makes sure a vertex group exists with `at` as a member, recruiting
    /// backups on creation.
    fn ensure_vertex_member(
        &mut self,
        eng: &mut SeaweedEngine,
        at: NodeIdx,
        h: QueryHandle,
        vertex: Id,
    ) {
        let exists = self.vertices.contains_key(&(h, vertex));
        if !exists {
            let mut state = VertexState::default();
            state.holders.push(at);
            self.vertices.insert((h, vertex), state);
            self.node_vertices[at.idx()].push((h, vertex));
            // Recruit m-1 backups: the next-closest live nodes to the
            // vertex key (from our leafset view).
            let backups: Vec<NodeIdx> = self
                .overlay
                .replica_set(at, self.cfg.k_metadata)
                .into_iter()
                .filter(|&x| x != at)
                .take(M_VERTEX - 1)
                .collect();
            let wire_h = self.live_handle(h);
            for bkp in backups {
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
        } else {
            let Some(state) = self.vertices.get_mut(&(h, vertex)) else {
                // `contains_key` held a moment ago with nothing mutating
                // in between; skip the membership update (counted)
                // rather than panic — the next submission re-ensures.
                self.stats.internal_drops += 1;
                return;
            };
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
        }
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
            let survivors: Vec<NodeIdx> = state
                .holders
                .iter()
                .copied()
                .filter(|&x| eng.is_up(x))
                .collect();
            if survivors.is_empty() {
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
            }
            let children = state.children.len();
            if state.holders.len() < M_VERTEX {
                // Recruit a replacement near the vertex key.
                let replacement = self
                    .overlay
                    .replica_set_oracle(vertex, M_VERTEX + 2)
                    .into_iter()
                    .find(|x| {
                        !state.holders.contains(x)
                            && eng.is_up(*x)
                            && eng.reachable(survivors[0], *x)
                    });
                if let Some(r) = replacement {
                    state.holders.push(r);
                    self.node_vertices[r.idx()].push((h, vertex));
                    self.stats.vertex_replications += 1;
                    let wire_h = self.live_handle(h);
                    self.overlay.send_app(
                        eng,
                        survivors[0],
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
