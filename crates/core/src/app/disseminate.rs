//! Query dissemination and completeness prediction (paper §3.3).
//!
//! The query is routed to the root of its queryId, which broadcasts by
//! divide-and-conquer over namespace ranges: a node receiving a range
//! splits it into 2^b subranges, handles the parts that lie entirely
//! within its own region of responsibility locally (estimating for the
//! unavailable endsystems there from replicated metadata), and routes one
//! message toward the midpoint of every other part. Per-range predictors
//! aggregate back along the reverse edges; silent subranges are reissued
//! after a timeout.

use seaweed_overlay::OverlayEvents;
use seaweed_sim::{NodeIdx, TrafficClass};
use seaweed_types::{Duration, Id, IdRange};

use super::{
    DissemTask, QueryHandle, QueryKind, RangeResult, Seaweed, SeaweedEngine, SeaweedMsg,
    SubrangeSlot, TaskKey, TimerAction, DISSEM_TIMEOUT, HEDGE_MIN_SAMPLES, HEDGE_QUANTILE,
    MAX_REISSUES,
};
use crate::predictor::Predictor;
use crate::provider::DataProvider;
use crate::wire;
use seaweed_store::Aggregate;

/// Cover candidates considered around a subrange midpoint when picking
/// dissemination targets (primary + backups). Matches the paper's
/// vertex-replica scale: a handful of ring-local endsystems.
const COVER_CANDIDATES: usize = 4;

impl<P: DataProvider> Seaweed<P> {
    /// Origin-side: route the query to the root of its queryId with the
    /// full namespace range.
    pub(crate) fn start_dissemination(
        &mut self,
        eng: &mut SeaweedEngine,
        origin: NodeIdx,
        h: QueryHandle,
    ) {
        self.learn_query(eng, origin, h);
        let q = &self.queries[h as usize];
        let key = q.id;
        let size = wire::disseminate(q.text.len());
        self.stats.disseminate_msgs += 1;
        self.stats.dissem_bytes += u64::from(size);
        self.timelines[h as usize].dissem_msgs += 1;
        let wire_h = self.live_handle(h);
        let evs = self.overlay.route(
            eng,
            origin,
            key,
            SeaweedMsg::Disseminate {
                query: wire_h,
                range: IdRange::FULL,
                parent: origin,
            },
            size,
        );
        // If the origin is itself the root, the delivery comes back
        // synchronously; feed it through the normal dispatch path.
        self.cascade(eng, evs);
    }

    /// Arms the origin-side watchdog behind every query injection. The
    /// kickoff is one unretried message, and the root's task state dies
    /// with the root, so a root crash right after delivery silences the
    /// query forever — no slot timer anywhere covers the top of the
    /// tree. Tail tolerance closes the gap by treating the kickoff like
    /// any other delegation: silent past the reissue timeout means
    /// re-send. No-op (and so baseline-invisible) when tail tolerance is
    /// off.
    pub(crate) fn arm_query_kick(
        &mut self,
        eng: &mut SeaweedEngine,
        origin: NodeIdx,
        h: QueryHandle,
    ) {
        if self.cfg.hedge.is_none() {
            return;
        }
        self.set_app_timer(
            eng,
            origin,
            DISSEM_TIMEOUT,
            TimerAction::QueryKick {
                node: origin,
                query: h,
            },
        );
    }

    /// The watchdog fired: if the origin still has no aggregate at all,
    /// re-route the full-range kickoff (landing on whichever node now
    /// owns the query id — dedup absorbs it if the original root is
    /// alive and collecting) and re-arm, up to `MAX_REISSUES` times.
    pub(crate) fn on_query_kick(
        &mut self,
        eng: &mut SeaweedEngine,
        origin: NodeIdx,
        h: QueryHandle,
    ) {
        let q = &mut self.queries[h as usize];
        // The watchdog guards the dissemination tree's own deliverable.
        // Result rows flow through the separate aggregation-tree path
        // and can arrive even when the dissemination root died — the
        // query then has rows but no completeness estimate, which is
        // exactly the outage the re-kick must repair.
        let got_report = match q.kind {
            QueryKind::View { .. } => q.latest.is_some(),
            _ => q.predictor.is_some(),
        };
        if !q.active || got_report {
            return;
        }
        if q.kicks >= MAX_REISSUES {
            eng.record_app_event(origin, "sim.app.query_kick.exhausted", u64::from(h));
            return;
        }
        q.kicks += 1;
        self.stats.query_kicks += 1;
        eng.record_app_event(origin, "sim.app.query_kick", u64::from(h));
        self.start_dissemination(eng, origin, h);
        self.arm_query_kick(eng, origin, h);
    }

    /// Drains a batch of overlay events to quiescence, oldest first.
    /// Overlay events can cascade (e.g. routing that delivers locally),
    /// so this drains a queue rather than recursing; an empty batch — a
    /// maintenance event — returns at the first `pop_front`.
    pub(crate) fn cascade(
        &mut self,
        eng: &mut SeaweedEngine,
        mut queue: OverlayEvents<SeaweedMsg>,
    ) {
        while let Some(ev) = queue.pop_front() {
            let more = self.on_overlay_event(eng, ev);
            queue.extend(more);
        }
    }

    /// A dissemination message (range responsibility) arrived at `n`.
    pub(crate) fn handle_disseminate(
        &mut self,
        eng: &mut SeaweedEngine,
        n: NodeIdx,
        h: QueryHandle,
        range: IdRange,
        parent: NodeIdx,
    ) -> OverlayEvents<SeaweedMsg> {
        if !self.queries[h as usize].active {
            return OverlayEvents::new();
        }
        self.learn_query(eng, n, h);

        let key: TaskKey = (n.0, h, range.start().0, range.width().unwrap_or(0));
        let tail_tolerant = self.cfg.hedge.is_some();
        if let Some(task) = self.tasks.get_mut(&key) {
            // Hedges and availability-aware re-routes can hand the same
            // range to us from a *second* parent. Pre-tail-tolerance the
            // duplicate was swallowed and the new parent starved into
            // reissue chains; with the features on, remember the extra
            // parent so the (re-)report fans out to every delegator.
            if tail_tolerant
                && parent != n
                && task.parent.is_some_and(|p| p != parent)
                && !task.extra_parents.contains(&parent)
            {
                task.extra_parents.push(parent);
            }
            if task.reported {
                // The parent reissued because our report was lost in
                // flight: retransmit it.
                task.reported = false;
                self.finish_task(eng, n, h, key);
            }
            // Otherwise the existing task is still collecting; it will
            // report when complete.
            return OverlayEvents::new();
        }

        let mut task = DissemTask {
            parent: Some(parent),
            extra_parents: Vec::new(),
            range,
            slots: Vec::new(),
            local: self.empty_result(h),
            reported: false,
            round: 0,
        };

        // The query root (first receiver, full range) reports straight to
        // the origin rather than to a tree parent.
        if range.is_full() {
            task.parent = None;
        }

        // The largest range in which n is the only live endsystem (from
        // its leafset view): any subrange of this can be absorbed whole.
        let my_sole = self.overlay.sole_coverage_range(n);
        // Midpoints n is responsible for would boomerang if routed out.
        let my_region = self.overlay.responsible_range(n);
        let mut out_events = OverlayEvents::new();

        // Work stack of subranges this node must either absorb locally or
        // delegate. Splitting is 2^b-ary as in the implementation the
        // paper describes.
        let fanout = 1u32 << self.overlay.config().b;
        let wire_h = self.live_handle(h);
        let mut stack = std::mem::take(&mut self.split_stack);
        stack.push(range);
        while let Some(r) = stack.pop() {
            if range_within(&r, &my_sole) {
                // We are the only live endsystem covering r: estimate for
                // ourselves (if inside) and every unavailable endsystem.
                self.absorb_range(eng, n, h, &r, &mut task.local);
            } else if r.contains(self.overlay.id_of(n)) || my_region.contains(r.midpoint()) {
                // Our own id is inside (or we are the root for the
                // subrange's midpoint, so routing it out would boomerang):
                // subdivide further locally.
                stack.extend(r.split(fanout));
            } else {
                // Delegate toward the subrange midpoint — always. Routing
                // by key terminates at the live region owner, which splits
                // or absorbs; sending to any other replica's exact id
                // would just append a forwarding hop (or, transitively, a
                // forwarding *chain*). Availability-aware selection
                // instead steers the recovery paths: reissue and hedge
                // targets (see `divert_target_key` / `hedge_target`).
                let target = r.midpoint();
                let q = &self.queries[h as usize];
                let size = wire::disseminate(q.text.len());
                self.stats.disseminate_msgs += 1;
                self.stats.dissem_bytes += u64::from(size);
                self.timelines[h as usize].dissem_msgs += 1;
                self.timelines[h as usize].dissem_fanout += 1;
                let evs = self.overlay.route(
                    eng,
                    n,
                    target,
                    SeaweedMsg::Disseminate {
                        query: wire_h,
                        range: r,
                        parent: n,
                    },
                    size,
                );
                out_events.extend(evs);
                task.slots.push(SubrangeSlot {
                    range: r,
                    done: None,
                    reissues: 0,
                    sent_at: eng.now(),
                    hedge: None,
                });
            }
        }

        self.split_stack = stack;

        let done = task.slots.is_empty();
        // A task that forwards its entire range in one slot is a pure
        // relay (we own none of it) — hedge backups land here. Racing
        // the relay's single delegation would add another racer to the
        // same subtree the original delegator's timer already covers, so
        // relays reissue but never hedge; that keeps a losing hedge at
        // one request + one reply instead of a hedge-of-hedges chain.
        let pure_relay = task.slots.len() == 1 && task.slots[0].range == range;
        self.tasks.insert(key, task);
        if done {
            self.finish_task(eng, n, h, key);
        } else {
            self.arm_task_timers(eng, key, 0, !pure_relay);
        }
        out_events
    }

    /// Routing key for *re*-delegating a silent subrange. With hedging
    /// off it is the midpoint, always. With hedging on, the midpoint is
    /// still used while the presumptive owner-side replica is believed
    /// up (the first send probably got unlucky, not the geometry); when
    /// it is down, the retry goes to the nearest *live* cover candidate
    /// instead of another round trip into the outage. The divert is one
    /// hop by construction: the candidate's own onward delegation is
    /// plain midpoint routing, which terminates at a live region owner.
    fn divert_target_key(&self, eng: &SeaweedEngine, n: NodeIdx, r: &IdRange) -> Id {
        let mid = r.midpoint();
        if self.cfg.hedge.is_none() {
            return mid;
        }
        let cands = self.overlay.cover_candidates(mid, COVER_CANDIDATES);
        if cands.first().is_none_or(|&owner| eng.is_up(owner)) {
            return mid;
        }
        cands
            .into_iter()
            .find(|&x| x != n && eng.is_up(x))
            .map_or(mid, |x| self.overlay.id_of(x))
    }

    /// The backup cover pick for a still-silent subrange: the nearest
    /// *live* candidate around the midpoint that is neither ourselves nor
    /// the owner-side replica the original delegation targeted.
    fn hedge_target(&self, eng: &SeaweedEngine, n: NodeIdx, r: &IdRange) -> Option<NodeIdx> {
        self.overlay
            .cover_candidates(r.midpoint(), COVER_CANDIDATES)
            .into_iter()
            .skip(1) // the owner-side replica
            .find(|&x| x != n && eng.is_up(x))
    }

    /// How long to wait for a subrange reply before hedging: the
    /// `HEDGE_QUANTILE` of this delegator's observed reply-latency
    /// distribution, falling back to a fraction of the reissue timeout
    /// until enough replies have been observed.
    ///
    /// The observed quantile is floored at the fallback threshold, not
    /// trusted below it: early in a query the delegator has only seen
    /// the replies that already landed — a sample censored toward the
    /// fast side — so a raw p90 of it hedges nearly every slot and
    /// multiplies dissemination bandwidth. The model may only *extend*
    /// the wait (a habitually slow replica set earns patience), up to
    /// the reissue timeout itself. `None` with hedging off.
    fn hedge_delay(&self, n: NodeIdx) -> Option<Duration> {
        let hc = self.cfg.hedge.as_ref()?;
        let fallback = Duration::from_micros(
            (DISSEM_TIMEOUT.as_micros() as f64 * hc.fallback_fraction) as u64,
        );
        let observed = self
            .reply_lat
            .quantile(n.idx(), HEDGE_QUANTILE, HEDGE_MIN_SAMPLES);
        Some(
            observed
                .map_or(fallback, |q| q.max(fallback))
                .clamp(Duration::from_micros(1), DISSEM_TIMEOUT),
        )
    }

    /// The hedge timer fired for a task: duplicate still-silent,
    /// not-yet-hedged subranges to a backup cover candidate. At most one
    /// hedge per slot, ever — the reissue machinery (which this races,
    /// never replaces) handles persistent silence.
    ///
    /// Which silent slots hedge is availability-gated, because a hedge
    /// is the expensive recovery (the backup re-disseminates the whole
    /// subrange) while a reissue is one message:
    ///
    /// * presumptive owner believed **down** — hedge immediately. A
    ///   reissue would route back into the outage; a backup near the
    ///   region mostly *absorbs* the range via its predictors, so the
    ///   rescue is cheap and fast. This is the correlated-outage case
    ///   that otherwise rides the full reissue ladder into a give-up.
    /// * owner believed **up** — the first delegation probably met loss,
    ///   not a dead replica, and the cheap reissue deserves first try;
    ///   hedge only slots a reissue already failed to revive (the
    ///   correlated-loss tail). The timer re-arms on every reissue
    ///   round, so such slots get their hedge one delay after the
    ///   reissue that failed them.
    ///
    /// A hedge that lands on an executor already working the range
    /// converges into the existing task via the extra-parent fan-in
    /// rather than spawning a duplicate subtree, so the cost of a losing
    /// hedge is one request and one reply, not a re-dissemination.
    ///
    /// A hedge timer of a task that has reported, or of an earlier
    /// round, fires as a no-op.
    pub(crate) fn on_hedge_timeout(&mut self, eng: &mut SeaweedEngine, key: TaskKey, round: u32) {
        let (n, h) = (NodeIdx(key.0), key.1);
        let Some(task) = self.tasks.get(&key).filter(|t| t.awaits(round)) else {
            return;
        };
        let pending: Vec<IdRange> = task
            .slots
            .iter()
            .filter(|s| s.done.is_none() && s.hedge.is_none())
            .filter(|s| {
                s.reissues > 0
                    || self
                        .overlay
                        .cover_candidates(s.range.midpoint(), 1)
                        .first()
                        .is_some_and(|&x| !eng.is_up(x))
            })
            .map(|s| s.range)
            .collect();
        let text_len = self.queries[h as usize].text.len();
        for r in pending {
            // A hedge reply can cascade synchronously and finish the
            // task; hedging the remaining slots would be pure waste.
            if self.tasks.get(&key).is_none_or(|t| t.reported) {
                break;
            }
            let Some(backup) = self.hedge_target(eng, n, &r) else {
                continue;
            };
            if let Some(slot) = self
                .tasks
                .get_mut(&key)
                .and_then(|t| t.slots.iter_mut().find(|s| s.range == r))
            {
                slot.hedge = Some(backup);
            }
            let size = wire::disseminate(text_len);
            self.stats.disseminate_msgs += 1;
            self.stats.dissem_bytes += u64::from(size);
            self.stats.hedges_sent += 1;
            let tl = &mut self.timelines[h as usize];
            tl.dissem_msgs += 1;
            tl.hedges_sent += 1;
            eng.record_app_event(n, "sim.app.hedge.sent", u64::from(h));
            let target = self.overlay.id_of(backup);
            let wire_h = self.live_handle(h);
            let evs = self.overlay.route(
                eng,
                n,
                target,
                SeaweedMsg::Disseminate {
                    query: wire_h,
                    range: r,
                    parent: n,
                },
                size,
            );
            self.cascade(eng, evs);
        }
    }

    /// The kind-appropriate identity element for a task's accumulator.
    fn empty_result(&self, h: QueryHandle) -> RangeResult {
        match self.queries[h as usize].kind {
            QueryKind::View { .. } => {
                RangeResult::View(Aggregate::empty(self.queries[h as usize].bound.agg), 0)
            }
            _ => RangeResult::Predictor(Predictor::new()),
        }
    }

    /// Folds into `acc` the contribution for a range wholly owned by `n`.
    fn absorb_range(
        &mut self,
        eng: &SeaweedEngine,
        n: NodeIdx,
        h: QueryHandle,
        r: &IdRange,
        acc: &mut RangeResult,
    ) {
        match self.queries[h as usize].kind {
            QueryKind::View { view } => {
                let RangeResult::View(agg, covered) = acc else {
                    unreachable!("view task accumulates view results")
                };
                self.absorb_range_view(eng, n, view, r, agg, covered);
            }
            _ => {
                let RangeResult::Predictor(p) = acc else {
                    unreachable!("predictor task accumulates predictors")
                };
                self.absorb_range_predict(eng, n, h, r, p);
            }
        }
    }

    /// Normal queries: `n`'s own estimate if its id lies inside, plus
    /// predictions for every unavailable endsystem whose metadata `n`
    /// holds.
    fn absorb_range_predict(
        &mut self,
        eng: &SeaweedEngine,
        n: NodeIdx,
        h: QueryHandle,
        r: &IdRange,
        acc: &mut Predictor,
    ) {
        let bound = &self.queries[h as usize].bound;
        if r.contains(self.overlay.id_of(n)) {
            let rows = self.provider.estimate_rows(n.idx(), bound);
            match self.cfg.storm.as_ref() {
                // Storm mode with a scan backlog at `n`: this endsystem
                // will not contribute immediately — the fair scheduler
                // serves its queue one batch per quantum — so model the
                // contention delay instead of claiming availability-now.
                // That keeps the paper's delay-aware predictor honest
                // under load. A zero backlog (always, without storm
                // mode or with a single query) takes the baseline call.
                Some(storm) if !self.scan[n.idx()].tasks.is_empty() => {
                    let backlog = self.scan[n.idx()].tasks.len() as u64;
                    let quanta = self
                        .provider
                        .scan_cost(n.idx())
                        .max(1)
                        .div_ceil(storm.quantum_rows.max(1));
                    let delay = Duration::from_micros(
                        storm
                            .quantum
                            .as_micros()
                            .saturating_mul(quanta.saturating_mul(backlog + 1)),
                    );
                    acc.add_available_delayed(rows, delay);
                }
                _ => acc.add_available(rows),
            }
        }
        // Enumerate endsystem ids inside r (the ring index's universe
        // covers all endsystems, available or not) without materializing
        // a Vec — a full-circle range at Farsite scale would otherwise
        // allocate N entries per dissemination leaf.
        for x in self.overlay.ring_index().all_in_range(r) {
            if x == n || eng.is_up(x) {
                // Available endsystems answer for themselves elsewhere in
                // the broadcast. (An up-but-not-yet-joined endsystem will
                // contribute results moments later via the active-query
                // list; predicting it as immediately-available would also
                // be fine, but it has no live path yet, so skip it — the
                // error window is seconds.)
                continue;
            }
            if !self.holders[x.idx()].contains(&n) {
                // We never received this endsystem's metadata: it cannot
                // be predicted (coverage gap, tracked).
                self.stats.uncovered_unavailable += 1;
                continue;
            }
            let rows = self.provider.estimate_rows(x.idx(), bound);
            let down_since = self.down_since[x.idx()].unwrap_or(eng.now());
            let pred = self.models[x.idx()].predict_return(eng.now(), down_since);
            acc.add_unavailable(rows, &pred);
            self.stats.predictions_for_unavailable += 1;
        }
    }

    /// View queries: `n`'s freshly computed value if its id lies inside,
    /// plus the *replicated* (possibly stale) values of unavailable
    /// endsystems `n` holds metadata for.
    fn absorb_range_view(
        &mut self,
        eng: &SeaweedEngine,
        n: NodeIdx,
        view: super::ViewHandle,
        r: &IdRange,
        acc: &mut Aggregate,
        covered: &mut u64,
    ) {
        if r.contains(self.overlay.id_of(n)) {
            match self
                .provider
                .execute(n.idx(), &self.views[view as usize].bound)
            {
                Ok(own) => {
                    acc.merge(&own);
                    *covered += 1;
                }
                // The loop below only covers unavailable endsystems, so
                // a live node that fails to execute loses its
                // contribution for this round.
                Err(_) => self.stats.exec_failures += 1,
            }
        }
        for x in self.overlay.ring_index().all_in_range(r) {
            if x == n || eng.is_up(x) {
                continue; // live endsystems answer with fresh values
            }
            if !self.holders[x.idx()].contains(&n) {
                self.stats.uncovered_unavailable += 1;
                continue;
            }
            if let Some(stale) = &self.view_values[view as usize][x.idx()] {
                acc.merge(stale);
                *covered += 1;
                self.stats.predictions_for_unavailable += 1;
            } else {
                self.stats.uncovered_unavailable += 1;
            }
        }
    }

    /// A child reported its subrange result (predictor or view partial).
    /// `from` is the reporting endsystem, used to attribute the reply to
    /// the primary or the hedge when the slot was hedged.
    pub(crate) fn on_range_report(
        &mut self,
        eng: &mut SeaweedEngine,
        n: NodeIdx,
        from: NodeIdx,
        h: QueryHandle,
        range: IdRange,
        result: RangeResult,
    ) -> OverlayEvents<SeaweedMsg> {
        self.stats.predictor_reports += 1;
        // Find this node's task owning that subrange. Heal-time re-issues
        // can leave one node with several tasks whose slots cover the
        // same range (an old given-up slot plus a fresh one), so prefer
        // the first task with a still-pending slot and fall back on the
        // first with the range at all — in ascending key order, which
        // pins the tie-break.
        let mut key = None;
        for (k, task) in self.tasks.tasks_of(n.0, h) {
            let mut slots = task.slots.iter().filter(|s| s.range == range);
            let Some(first) = slots.next() else {
                continue;
            };
            if first.done.is_none() || slots.any(|s| s.done.is_none()) {
                key = Some(k);
                break;
            }
            key = key.or(Some(k));
        }
        let Some(key) = key else {
            return OverlayEvents::new(); // late/duplicate report for a finished task
        };
        let report_size = u64::from(match &result {
            RangeResult::Predictor(p) => wire::predictor_report(p.wire_size()),
            RangeResult::View(..) => wire::predictor_report(48),
        });
        let now = eng.now();
        // The candidate filter guaranteed the key and a slot with this
        // range moments ago; a miss is an internal inconsistency — drop
        // the report (counted) rather than panic, and let the reissue
        // machinery re-drive the range.
        let Some(task) = self.tasks.get_mut(&key) else {
            self.stats.internal_drops += 1;
            return OverlayEvents::new();
        };
        let Some(slot) = task.slots.iter_mut().find(|s| s.range == range) else {
            self.stats.internal_drops += 1;
            return OverlayEvents::new();
        };
        // `None`: unhedged fill. `Some(true)`: the hedge won the race.
        // `Some(false)`: the primary won, the hedge was pure overhead.
        let mut hedge_won = None;
        let mut loser_reply = false;
        if slot.done.is_none() {
            if let Some(backup) = slot.hedge {
                hedge_won = Some(from == backup);
            }
            let waited = now.saturating_since(slot.sent_at);
            slot.done = Some(result);
            self.reply_lat.observe(n.idx(), waited);
        } else if slot.hedge.is_some() {
            // The race loser's duplicate reply landing on an
            // already-filled hedged slot: deduped here (exactly-once is
            // untouched), charged as hedging waste.
            loser_reply = true;
        }
        match hedge_won {
            Some(true) => {
                self.stats.hedge_wins += 1;
                self.timelines[h as usize].hedge_wins += 1;
                eng.record_app_event(n, "sim.app.hedge.win", u64::from(h));
            }
            Some(false) => {
                let wasted = u64::from(wire::disseminate(self.queries[h as usize].text.len()));
                self.stats.hedge_losses += 1;
                self.stats.hedge_wasted_bytes += wasted;
                let tl = &mut self.timelines[h as usize];
                tl.hedge_losses += 1;
                tl.hedge_wasted_bytes += wasted;
                eng.record_app_event(n, "sim.app.hedge.loss", u64::from(h));
            }
            None => {}
        }
        if loser_reply {
            self.stats.hedge_wasted_bytes += report_size;
            self.timelines[h as usize].hedge_wasted_bytes += report_size;
        }
        // Present above in this same call; counters in between only
        // touch stats/timelines.
        let Some(task) = self.tasks.get(&key) else {
            self.stats.internal_drops += 1;
            return OverlayEvents::new();
        };
        if task.slots.iter().all(|s| s.done.is_some()) {
            self.finish_task(eng, n, h, key);
        }
        OverlayEvents::new()
    }

    /// Reissue timer fired for a task: re-route any silent subranges (up
    /// to `MAX_REISSUES` times), then give up on stragglers
    /// so the predictor is not held hostage by churn. A reissue timer of
    /// a task that has reported, or of an earlier round, fires as a
    /// no-op.
    pub(crate) fn on_dissem_timeout(&mut self, eng: &mut SeaweedEngine, key: TaskKey, round: u32) {
        let Some(task) = self.tasks.get_mut(&key).filter(|t| t.awaits(round)) else {
            return;
        };
        let (n, h) = (NodeIdx(key.0), key.1);
        let now = eng.now();
        let mut to_reissue = Vec::new();
        let mut gave_up = Vec::new();
        for (i, slot) in task.slots.iter_mut().enumerate() {
            if slot.done.is_some() {
                continue;
            }
            if slot.reissues < MAX_REISSUES {
                slot.reissues += 1;
                slot.sent_at = now; // reply latency measured from the resend
                                    // A new round earns a new hedge: the previous backup is
                                    // as silent as the primary, so when the re-armed hedge
                                    // timer fires it may duplicate to a fresh candidate
                                    // (at most one hedge in flight per slot per round).
                                    // Never set with hedging off, so clearing is baseline-
                                    // invisible.
                slot.hedge = None;
                to_reissue.push(slot.range);
            } else {
                // Give up: report what we have (the range contributes
                // nothing — matches the paper's best-effort reissue).
                // The range is remembered so a partition heal can
                // re-cover it (the usual reason every reissue died).
                gave_up.push((i, slot.range));
            }
        }
        if !gave_up.is_empty() {
            let empty = self.empty_result(h);
            // Borrow re-established after `empty_result`; the task was
            // present at entry and nothing here removes it.
            let Some(task) = self.tasks.get_mut(&key) else {
                self.stats.internal_drops += 1;
                return;
            };
            for &(i, _) in &gave_up {
                task.slots[i].done = Some(empty.clone());
            }
            for (_, r) in gave_up {
                self.stats.dissem_give_ups += 1;
                self.timelines[h as usize].give_ups += 1;
                eng.record_app_event(n, "sim.app.give_up.reissues_exhausted", u64::from(h));
                self.gave_up.push((n, h, r));
            }
        }
        if !to_reissue.is_empty() {
            self.stats.dissem_reissues += to_reissue.len() as u64;
            self.timelines[h as usize].dissem_reissues += to_reissue.len() as u64;
            let q_text_len = self.queries[h as usize].text.len();
            for r in to_reissue {
                let size = wire::disseminate(q_text_len);
                self.stats.disseminate_msgs += 1;
                self.stats.dissem_bytes += u64::from(size);
                self.timelines[h as usize].dissem_msgs += 1;
                let target = self.divert_target_key(eng, n, &r);
                let wire_h = self.live_handle(h);
                let evs = self.overlay.route(
                    eng,
                    n,
                    target,
                    SeaweedMsg::Disseminate {
                        query: wire_h,
                        range: r,
                        parent: n,
                    },
                    size,
                );
                self.cascade(eng, evs);
            }
            self.rearm_task_timers(eng, key);
        }
        // All slots may now be resolved (give-ups). Reissue cascades
        // above can legitimately complete and retire state, so a missing
        // task here is just "nothing left to do".
        let Some(task) = self.tasks.get(&key) else {
            return;
        };
        if !task.reported && task.slots.iter().all(|s| s.done.is_some()) {
            self.finish_task(eng, n, h, key);
        }
    }

    /// Starts a task's next timer round after a round of re-delegation —
    /// a reissue, or the re-cover of given-up ranges when a partition
    /// heals: what the previous round left armed now fires as a no-op.
    pub(crate) fn rearm_task_timers(&mut self, eng: &mut SeaweedEngine, key: TaskKey) {
        let round = self.tasks.get_mut(&key).map_or(0, |task| {
            task.round = task.round.wrapping_add(1);
            task.round
        });
        self.arm_task_timers(eng, key, round, true);
    }

    /// Arms a task's reissue timer for `round` and, when hedging is on
    /// and the task may hedge, its hedge timer, both fire-and-forget.
    fn arm_task_timers(&mut self, eng: &mut SeaweedEngine, task: TaskKey, round: u32, hedge: bool) {
        let n = NodeIdx(task.0);
        let timeout = TimerAction::DissemTimeout { task, round };
        self.set_app_timer(eng, n, DISSEM_TIMEOUT, timeout);
        if let Some(delay) = hedge.then(|| self.hedge_delay(n)).flatten() {
            self.set_app_timer(eng, n, delay, TimerAction::HedgeTimeout { task, round });
        }
    }

    /// All subranges accounted for: merge and report to the parent (or
    /// the origin, at the tree root).
    fn finish_task(&mut self, eng: &mut SeaweedEngine, n: NodeIdx, h: QueryHandle, key: TaskKey) {
        // Every caller verified the task exists before calling; a miss
        // drops the report (counted), and the parent's reissue timer
        // re-drives the range if it mattered.
        let Some(task) = self.tasks.get_mut(&key) else {
            self.stats.internal_drops += 1;
            return;
        };
        if task.reported {
            return;
        }
        // Reporting resolves both pending races: the task's reissue and
        // hedge timers now fire as no-ops.
        task.reported = true;
        // Local first, then the slots in slot order: a retransmission
        // of a lost report re-merges to the same bits.
        let mut merged = task.local.clone();
        for r in task.slots.iter().filter_map(|slot| slot.done.as_ref()) {
            merged.merge(r);
        }
        let parent = task.parent;
        // Every delegator that converged on this task hears the report;
        // draining means a later retransmission fans out only to whoever
        // asked again. Always empty with tail tolerance off.
        let extra_parents = std::mem::take(&mut task.extra_parents);
        let range = task.range;
        let size = match &merged {
            RangeResult::Predictor(p) => wire::predictor_report(p.wire_size()),
            RangeResult::View(..) => wire::predictor_report(48),
        };
        self.stats.predictor_bytes += u64::from(size);
        let wire_h = self.live_handle(h);
        for &extra in extra_parents.iter().filter(|&&e| Some(e) != parent) {
            let msg = match merged.clone() {
                RangeResult::Predictor(predictor) => SeaweedMsg::PredictorReport {
                    query: wire_h,
                    range,
                    predictor: Box::new(predictor),
                },
                RangeResult::View(agg, endsystems) => SeaweedMsg::ViewReport {
                    query: wire_h,
                    range,
                    agg,
                    endsystems,
                },
            };
            self.stats.predictor_bytes += u64::from(size);
            self.overlay
                .send_app(eng, n, extra, msg, size, TrafficClass::Query);
        }
        match parent {
            Some(parent) if parent != n => {
                let msg = match merged {
                    RangeResult::Predictor(predictor) => SeaweedMsg::PredictorReport {
                        query: wire_h,
                        range,
                        predictor: Box::new(predictor),
                    },
                    RangeResult::View(agg, endsystems) => SeaweedMsg::ViewReport {
                        query: wire_h,
                        range,
                        agg,
                        endsystems,
                    },
                };
                self.overlay
                    .send_app(eng, n, parent, msg, size, TrafficClass::Query);
            }
            Some(_) => {
                // Parent is ourselves (self-delegated subrange): feed the
                // report back through the local path.
                let evs = self.on_range_report(eng, n, n, h, range, merged);
                self.cascade(eng, evs);
            }
            None => {
                // Tree root: hand the result to the query origin.
                let origin = self.queries[h as usize].origin;
                match merged {
                    RangeResult::Predictor(predictor) => {
                        if origin == n {
                            self.on_predictor_at_origin(eng, n, h, predictor);
                        } else {
                            self.overlay.send_app(
                                eng,
                                n,
                                origin,
                                SeaweedMsg::PredictorToOrigin {
                                    query: wire_h,
                                    predictor: Box::new(predictor),
                                },
                                size,
                                TrafficClass::Query,
                            );
                        }
                    }
                    RangeResult::View(agg, endsystems) => {
                        if origin == n {
                            self.on_view_at_origin(eng, n, h, agg, endsystems);
                        } else {
                            self.overlay.send_app(
                                eng,
                                n,
                                origin,
                                SeaweedMsg::ViewToOrigin {
                                    query: wire_h,
                                    agg,
                                    endsystems,
                                },
                                size,
                                TrafficClass::Query,
                            );
                        }
                    }
                }
            }
        }
    }

    /// The aggregated view answer reached the query origin.
    pub(crate) fn on_view_at_origin(
        &mut self,
        eng: &SeaweedEngine,
        at: NodeIdx,
        h: QueryHandle,
        agg: Aggregate,
        endsystems: u64,
    ) {
        let q = &mut self.queries[h as usize];
        debug_assert_eq!(q.origin, at);
        if q.latest.is_none() {
            q.latest = Some(agg);
            q.latest_version = endsystems; // coverage doubles as version
            q.progress.push((eng.now(), agg.rows, agg.finish()));
            q.predictor_at = Some(eng.now());
            let tl = &mut self.timelines[h as usize];
            tl.predictor_at = Some(eng.now());
            tl.record_result(eng.now(), agg.rows);
        }
    }

    /// The aggregated predictor reached the query origin.
    pub(crate) fn on_predictor_at_origin(
        &mut self,
        eng: &SeaweedEngine,
        at: NodeIdx,
        h: QueryHandle,
        predictor: Predictor,
    ) {
        let q = &mut self.queries[h as usize];
        debug_assert_eq!(q.origin, at);
        if q.predictor.is_none() {
            q.predictor = Some(predictor);
            q.predictor_at = Some(eng.now());
            self.timelines[h as usize].predictor_at = Some(eng.now());
        }
    }
}

/// Is `inner` entirely contained in `outer`?
fn range_within(inner: &IdRange, outer: &IdRange) -> bool {
    if inner.is_empty() || outer.is_full() {
        return true;
    }
    if outer.is_empty() || inner.is_full() {
        return false;
    }
    outer.contains(inner.start()) && outer.contains(inner.last()) && {
        // Guard against inner wrapping all the way around a small outer:
        // widths must be consistent too. `width()` is only `None` for
        // full ranges, both excluded above; treat an impossible `None`
        // as not-contained rather than panic.
        match (inner.width(), outer.width()) {
            (Some(iw), Some(ow)) => iw <= ow,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seaweed_overlay::OverlayConfig;
    use seaweed_sim::{SimConfig, UniformTopology};
    use seaweed_types::{Id, Time};

    use super::super::{HedgeConfig, SeaweedConfig};
    use crate::provider::LiveTables;
    use crate::world::{boot_staggered, build_world, flag_fixture, CHAOS_QUERY};

    const N: usize = 24;

    /// The timer actions parked for `key`, as `(round, is a hedge, tag)`
    /// in round order, the reissue timer first.
    fn parked(sw: &Seaweed<LiveTables>, key: TaskKey) -> Vec<(u32, bool, u64)> {
        // A parked action names its query by wire handle.
        let ours = |t: TaskKey| sw.live_slot(t.1).is_some_and(|s| (t.0, s, t.2, t.3) == key);
        let mut out: Vec<_> = (sw.timers.iter())
            .filter_map(|(tag, action)| match *action {
                TimerAction::DissemTimeout { task, round, .. } if ours(task) => {
                    Some((round, false, tag))
                }
                TimerAction::HedgeTimeout { task, round, .. } if ours(task) => {
                    Some((round, true, tag))
                }
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Hedging on, in a fault-free world one second after a query was
    /// injected: every task has reported, none of its timers has come
    /// due, and each is fired here through `on_app_timer`, the dispatch
    /// of a timer event. A reported task's reissue and hedge timers fire
    /// without a message or a counter moving. After a reissue round, on a
    /// task again waiting on a silent, already-reissued slot — one either
    /// of them would act on — the previous round's two timers do nothing,
    /// while the current round's reissue timer reissues and arms the next
    /// round.
    #[test]
    fn stale_dissemination_timers_fire_as_no_ops() {
        let (tables, schema) = flag_fixture(0..N as u32, 1);
        let hedged = SeaweedConfig {
            hedge: Some(HedgeConfig::default()),
            ..SeaweedConfig::default()
        };
        let topology = Box::new(UniformTopology::new(N, Duration::from_millis(5)));
        let (mut eng, mut sw) = build_world(
            topology,
            5,
            SimConfig::default(),
            OverlayConfig::default(),
            hedged,
            tables,
        );
        boot_staggered(&mut eng, Duration::from_millis(300));
        sw.run_until(&mut eng, Time::from_secs(300));
        let ttl = Duration::from_hours(1);
        sw.inject_query(&mut eng, NodeIdx(0), CHAOS_QUERY, ttl, &schema)
            .expect("the query parses and binds");
        sw.run_until(&mut eng, Time::from_secs(301));
        let keys: Vec<TaskKey> = sw.tasks.keys().collect();
        let shape = |timers: &[(u32, bool, u64)]| -> Vec<(u32, bool)> {
            timers
                .iter()
                .map(|&(round, hedge, _)| (round, hedge))
                .collect()
        };
        let quiet = |sw: &Seaweed<LiveTables>, eng: &SeaweedEngine| {
            (eng.messages_sent, format!("{:?}", sw.stats))
        };
        // The tasks that delegated and are not pure relays.
        let mut hedging = keys.into_iter().filter(|&k| parked(&sw, k).len() == 2);
        let reported = hedging.next().expect("a task that hedges");
        let reopened = hedging.next().expect("a second task that hedges");

        let timers = parked(&sw, reported);
        assert!(sw.tasks.get(&reported).is_some_and(|t| t.reported));
        assert_eq!(shape(&timers), [(0, false), (0, true)]);
        let before = quiet(&sw, &eng);
        for &(.., tag) in &timers {
            sw.on_app_timer(&mut eng, NodeIdx(reported.0), tag);
        }
        assert_eq!(quiet(&sw, &eng), before);
        assert!(parked(&sw, reported).is_empty());

        let task = sw.tasks.get_mut(&reopened).expect("listed key");
        task.reported = false;
        let slot = &mut task.slots[0];
        (slot.done, slot.reissues, slot.hedge) = (None, 1, None);
        sw.rearm_task_timers(&mut eng, reopened);
        let timers = parked(&sw, reopened);
        assert_eq!(
            shape(&timers),
            [(0, false), (0, true), (1, false), (1, true)]
        );
        let node = NodeIdx(reopened.0);
        let before = quiet(&sw, &eng);
        sw.on_app_timer(&mut eng, node, timers[1].2);
        sw.on_app_timer(&mut eng, node, timers[0].2);
        assert_eq!(quiet(&sw, &eng), before);
        let task = sw.tasks.get(&reopened).expect("the task is still there");
        assert!(task.awaits(1) && task.slots[0].done.is_none());
        let reissues = sw.stats.dissem_reissues;
        sw.on_app_timer(&mut eng, node, timers[2].2);
        assert_eq!(sw.stats.dissem_reissues, reissues + 1);
        assert_eq!(
            shape(&parked(&sw, reopened)),
            [(1, true), (2, false), (2, true)]
        );
    }

    #[test]
    fn range_within_cases() {
        let outer = IdRange::new(Id(100), 100);
        assert!(range_within(&IdRange::new(Id(120), 10), &outer));
        assert!(range_within(&outer, &outer));
        assert!(!range_within(&IdRange::new(Id(90), 20), &outer));
        assert!(!range_within(&IdRange::new(Id(150), 100), &outer));
        assert!(range_within(&IdRange::EMPTY, &outer));
        assert!(range_within(&outer, &IdRange::FULL));
        assert!(!range_within(&IdRange::FULL, &outer));
        // Wrapping outer.
        let wrap = IdRange::between(Id(u128::MAX - 10), Id(10));
        assert!(range_within(
            &IdRange::between(Id(u128::MAX - 5), Id(5)),
            &wrap
        ));
        assert!(!range_within(&IdRange::new(Id(50), 10), &wrap));
    }
}
