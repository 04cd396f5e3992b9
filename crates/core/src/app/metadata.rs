//! Metadata replication (paper §3.2).
//!
//! Each endsystem pushes its data summary (h bytes) and availability
//! model (a bytes) to its replica set — the k endsystems with the closest
//! ids — on join, periodically, and whenever the replica set changes.
//! When an endsystem fails, the survivors re-replicate both their own
//! metadata (their replica set gained a member) and the metadata the
//! failed node held for currently-down owners (so k copies persist).

use seaweed_sim::{NodeIdx, TrafficClass};
use seaweed_types::Duration;

use super::{Seaweed, SeaweedEngine, SeaweedMsg, TimerAction, PUSH_PERIOD};
use crate::provider::DataProvider;
use crate::wire;

impl<P: DataProvider> Seaweed<P> {
    /// Wire size of one metadata push for `owner`: summary + availability
    /// model + one value per registered replicated view.
    pub(crate) fn meta_push_size(&self, owner: NodeIdx) -> u32 {
        wire::meta_push(self.provider.summary_wire_size(owner.idx())) + 48 * self.views.len() as u32
    }

    /// Pushes `owner`'s metadata to every current replica-set member,
    /// refreshing the owner's replicated view values first.
    pub(crate) fn push_metadata(&mut self, eng: &mut SeaweedEngine, owner: NodeIdx) {
        for (v, def) in self.views.iter().enumerate() {
            match self.provider.execute(owner.idx(), &def.bound) {
                Ok(agg) => self.view_values[v][owner.idx()] = Some(agg),
                // Keep the previous value (if any); the next push retries.
                Err(_) => self.stats.exec_failures += 1,
            }
        }
        let size = self.meta_push_size(owner);
        let members = self.overlay.replica_set(owner, self.cfg.k_metadata);
        self.stats.meta_pushes += members.len() as u64;
        for &m in members.iter() {
            // A member on the owner's own holder list, and up, would find
            // `holders.contains(&m)` on delivery and change nothing
            // (contents live in the shared store; only membership
            // travels). So that push goes through the engine's send path
            // — charged, cut, lost and duplicated exactly as a delivered
            // message — without becoming an event. A member that is new,
            // not yet a holder, or down gets the message.
            if self.holders[owner.idx()].contains(&m) && eng.is_up(m) {
                debug_assert!(self.meta_push_is_noop(m, owner));
                self.stats.meta_pushes_accounted += 1;
                self.overlay
                    .send_app_accounted(eng, owner, m, size, TrafficClass::Maintenance);
            } else {
                self.overlay.send_app(
                    eng,
                    owner,
                    m,
                    SeaweedMsg::MetaPush { owner },
                    size,
                    TrafficClass::Maintenance,
                );
            }
        }
    }

    /// Arms the next randomized periodic push (mean [`PUSH_PERIOD`]).
    pub(crate) fn schedule_meta_push(&mut self, eng: &mut SeaweedEngine, n: NodeIdx) {
        let period = PUSH_PERIOD.as_micros();
        let delay = Duration::from_micros(self.rng.gen_range_u64(1, 2 * period));
        self.set_app_timer(eng, n, delay, TimerAction::MetaPush { node: n });
    }

    pub(crate) fn on_meta_push_timer(&mut self, eng: &mut SeaweedEngine, n: NodeIdx) {
        // The engine cancels this timer if `n` goes down, so a firing
        // timer always belongs to the current availability session.
        debug_assert!(eng.is_up(n));
        self.push_metadata(eng, n);
        self.schedule_meta_push(eng, n);
    }

    /// A replica-set member received `owner`'s metadata.
    pub(crate) fn on_meta_push(&mut self, holder: NodeIdx, owner: NodeIdx) {
        if !self.holders[owner.idx()].contains(&holder) {
            self.holders[owner.idx()].push(holder);
            self.held_by[holder.idx()].push(owner);
        }
    }

    /// Would [`Seaweed::on_meta_push`] at `holder` change nothing? The
    /// condition under which a periodic push is accounted instead of
    /// delivered, re-derived in debug builds at every one.
    fn meta_push_is_noop(&self, holder: NodeIdx, owner: NodeIdx) -> bool {
        self.holders[owner.idx()].contains(&holder) && self.held_by[holder.idx()].contains(&owner)
    }

    /// Does `holder` currently hold `owner`'s metadata?
    #[must_use]
    pub fn holds_metadata(&self, holder: NodeIdx, owner: NodeIdx) -> bool {
        self.holders[owner.idx()].contains(&holder)
    }

    /// A new neighbor joined `node`'s leafset. Two transfers:
    ///
    /// 1. If the joiner entered `node`'s replica set, push `node`'s own
    ///    metadata to it.
    /// 2. The joiner must *acquire* the replicated metadata it is now
    ///    responsible for (Eq. 2's join cost): `node` forwards the copies
    ///    it holds for owners whose replica set now includes the joiner —
    ///    this is what keeps k copies alive for owners that are currently
    ///    down while their neighborhood churns.
    pub(crate) fn on_neighbor_joined(
        &mut self,
        eng: &mut SeaweedEngine,
        node: NodeIdx,
        joined: NodeIdx,
    ) {
        if !self.overlay.is_joined(node) {
            return;
        }
        if self
            .overlay
            .replica_set(node, self.cfg.k_metadata)
            .contains(&joined)
            && !self.holders[node.idx()].contains(&joined)
        {
            let size = self.meta_push_size(node);
            self.stats.meta_pushes += 1;
            self.overlay.send_app(
                eng,
                node,
                joined,
                SeaweedMsg::MetaPush { owner: node },
                size,
                TrafficClass::Maintenance,
            );
        }
        // Hand over held copies the joiner is now a proper holder of.
        let Some(served) = self.overlay.served_arc(joined, self.cfg.k_metadata) else {
            return;
        };
        for &z in &self.held_by[node.idx()] {
            if z != joined
                && !self.holders[z.idx()].contains(&joined)
                && served.contains(self.overlay.id_of(z))
            {
                let size = self.meta_push_size(z);
                self.stats.meta_pushes += 1;
                self.overlay.send_app(
                    eng,
                    node,
                    joined,
                    SeaweedMsg::MetaPush { owner: z },
                    size,
                    TrafficClass::Maintenance,
                );
            }
        }
    }

    /// `detector` noticed that `failed` is gone. Two repairs:
    ///
    /// 1. `detector`'s own replica set changed — re-push its metadata to
    ///    any member that lacks it.
    /// 2. On the *first* detection of `failed` (its holder lists are
    ///    still intact), re-replicate the metadata `failed` held for
    ///    currently-down owners onto replacement holders, and repair any
    ///    aggregation-tree vertex groups it belonged to.
    pub(crate) fn on_neighbor_failed(
        &mut self,
        eng: &mut SeaweedEngine,
        detector: NodeIdx,
        failed: NodeIdx,
    ) {
        // (1) detector-side re-replication of its own metadata.
        if self.overlay.is_joined(detector) {
            let size = self.meta_push_size(detector);
            let members = self.overlay.replica_set(detector, self.cfg.k_metadata);
            for &m in members.iter() {
                if !self.holders[detector.idx()].contains(&m) {
                    self.stats.meta_pushes += 1;
                    self.stats.meta_repairs += 1;
                    self.overlay.send_app(
                        eng,
                        detector,
                        m,
                        SeaweedMsg::MetaPush { owner: detector },
                        size,
                        TrafficClass::Maintenance,
                    );
                }
            }
        }

        // (2) first-detection global repair for what `failed` held. An
        // up-but-unreachable node (partition) still *has* its state, so
        // nothing is lost and nothing must be wiped — the detector-side
        // re-push above is the whole repair.
        if eng.is_up(failed) {
            return; // already back (or partitioned); state is intact
        }
        // A crash-with-amnesia pruned the holder lists eagerly and left
        // the owner list in a stash; fold it in so those owners still get
        // their replication factor repaired.
        let mut held: Vec<NodeIdx> = std::mem::take(&mut self.held_by[failed.idx()]);
        held.extend(std::mem::take(&mut self.amnesia_meta[failed.idx()]));
        if !held.is_empty() {
            for owner in held {
                self.holders[owner.idx()].retain(|&h| h != failed);
                if eng.is_up(owner) {
                    // The owner's own periodic push will restore the
                    // count; nothing to transfer now.
                    continue;
                }
                // Owner is down: a surviving holder copies the metadata to
                // the best replacement so k copies persist.
                let Some(&survivor) = self.holders[owner.idx()].iter().find(|&&h| eng.is_up(h))
                else {
                    continue; // all holders gone; coverage lost until owner returns
                };
                let owner_id = self.overlay.id_of(owner);
                let replacement = self
                    .overlay
                    .closest_joined(owner_id, self.cfg.k_metadata)
                    .find(|m| {
                        !self.holders[owner.idx()].contains(m)
                            && eng.is_up(*m)
                            && eng.reachable(survivor, *m)
                    });
                if let Some(m) = replacement {
                    let size = self.meta_push_size(owner);
                    self.stats.meta_pushes += 1;
                    self.stats.meta_repairs += 1;
                    self.overlay.send_app(
                        eng,
                        survivor,
                        m,
                        SeaweedMsg::MetaPush { owner },
                        size,
                        TrafficClass::Maintenance,
                    );
                }
            }
        }

        // Aggregation-tree vertex groups the failed node belonged to.
        self.repair_vertices_of(eng, failed);
    }
}

/// Tiny extension trait: `rand::Rng::gen_range` with u64 bounds without
/// pulling the trait into every call site.
trait GenRangeU64 {
    fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64;
}

impl GenRangeU64 for rand::rngs::StdRng {
    fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        use rand::Rng;
        self.gen_range(lo..hi)
    }
}

#[cfg(test)]
mod tests {
    use seaweed_overlay::{wire::HEADER, OverlayConfig};
    use seaweed_sim::{NodeIdx, SimConfig, TraceConfig, TraceEvent, TrafficClass, UniformTopology};
    use seaweed_types::{Duration, Time};

    use super::super::{Seaweed, SeaweedConfig, SeaweedEngine, SeaweedMsg};
    use crate::provider::LiveTables;
    use crate::world::{boot_staggered, build_world, flag_fixture};

    const N: usize = 30;
    const K: usize = 8;

    /// `N` endsystems joined in a wave and left for ten simulated minutes.
    fn settled(sim: SimConfig) -> (SeaweedEngine, Seaweed<LiveTables>) {
        let (mut eng, mut sw) = build_world(
            Box::new(UniformTopology::new(N, Duration::from_millis(5))),
            3,
            sim,
            OverlayConfig::default(),
            SeaweedConfig::default(),
            flag_fixture(0..N as u32, 1).0,
        );
        boot_staggered(&mut eng, Duration::from_millis(700));
        sw.run_until(&mut eng, Time::from_secs(600));
        (eng, sw)
    }

    fn members(sw: &Seaweed<LiveTables>, owner: NodeIdx) -> Vec<NodeIdx> {
        sw.overlay.replica_set(owner, K).to_vec()
    }

    /// Messages as (from, to, size).
    type Flow = Vec<(NodeIdx, NodeIdx, u32)>;

    /// What the engine's trace recorded from record `mark` on: the
    /// Maintenance-class sends, and the deliveries.
    fn maintenance_since(eng: &SeaweedEngine, mark: u64) -> (Flow, Flow) {
        let (mut tx, mut rx) = (Vec::new(), Vec::new());
        let tracer = eng.tracer().expect("the world traces");
        for r in tracer.records().filter(|r| r.seq >= mark) {
            match r.ev {
                TraceEvent::MessageSend {
                    from,
                    to,
                    size,
                    class: TrafficClass::Maintenance,
                } => tx.push((from, to, size)),
                TraceEvent::MessageDeliver {
                    from,
                    to,
                    size,
                    class: TrafficClass::Maintenance,
                } => rx.push((from, to, size)),
                _ => {}
            }
        }
        (tx, rx)
    }

    /// The guard of `push_metadata`, one push timer at a time: a standing
    /// holder is charged and nothing is queued for it; a member the owner
    /// does not list, or one that is down, gets the message.
    #[test]
    fn a_push_to_a_standing_holder_is_charged_and_one_to_anyone_else_is_sent() {
        let (mut eng, mut sw) = settled(SimConfig {
            trace: Some(TraceConfig::default()),
            ..SimConfig::default()
        });
        assert_eq!(sw.overlay.num_joined(), N);
        let owner = NodeIdx(4);
        let set = members(&sw, owner);
        assert_eq!(set.len(), K);
        assert!(set.iter().all(|&m| sw.holds_metadata(m, owner)));
        let size = HEADER + sw.meta_push_size(owner);
        let traced = |eng: &SeaweedEngine| eng.tracer().expect("the world traces").recorded();

        // Every member holds the copy: all charged, at the send instant,
        // nothing queued, no list touched.
        let (holders, held_by) = (sw.holders.clone(), sw.held_by.clone());
        let (sent, stats, mark) = (eng.messages_sent, sw.stats, traced(&eng));
        sw.on_meta_push_timer(&mut eng, owner);
        assert_eq!(eng.messages_sent, sent);
        assert_eq!(sw.stats.meta_pushes, stats.meta_pushes + K as u64);
        assert_eq!(
            sw.stats.meta_pushes_accounted,
            stats.meta_pushes_accounted + K as u64
        );
        let charged: Vec<_> = set.iter().map(|&m| (owner, m, size)).collect();
        assert_eq!(maintenance_since(&eng, mark), (charged.clone(), charged));
        assert_eq!((&sw.holders, &sw.held_by), (&holders, &held_by));

        // One member is not on the owner's list: it alone is sent the
        // message, and delivery lists it again.
        let lapsed = set[2];
        sw.holders[owner.idx()].retain(|&h| h != lapsed);
        sw.held_by[lapsed.idx()].retain(|&o| o != owner);
        let (sent, stats) = (eng.messages_sent, sw.stats);
        sw.on_meta_push_timer(&mut eng, owner);
        assert_eq!(eng.messages_sent, sent + 1);
        assert_eq!(
            sw.stats.meta_pushes_accounted,
            stats.meta_pushes_accounted + K as u64 - 1
        );
        assert!(!sw.holds_metadata(lapsed, owner));
        let soon = eng.now() + Duration::from_secs(1);
        sw.run_until(&mut eng, soon);
        assert!(sw.holds_metadata(lapsed, owner));
        assert!(sw.held_by[lapsed.idx()].contains(&owner));

        // One member is down and nobody has noticed: still in the
        // replica set, still listed, and sent the message the network
        // will drop at its door.
        let gone = set[5];
        eng.schedule_down(eng.now(), gone);
        let now = eng.now();
        sw.run_until(&mut eng, now);
        assert!(!eng.is_up(gone));
        assert_eq!(members(&sw, owner), set);
        assert!(sw.holds_metadata(gone, owner));
        let (sent, stats, mark) = (eng.messages_sent, sw.stats, traced(&eng));
        sw.on_meta_push_timer(&mut eng, owner);
        assert_eq!(eng.messages_sent, sent + 1);
        assert_eq!(
            sw.stats.meta_pushes_accounted,
            stats.meta_pushes_accounted + K as u64 - 1
        );
        let (tx, rx) = maintenance_since(&eng, mark);
        assert_eq!(tx.len(), K);
        assert!(!rx.contains(&(owner, gone, size)) && rx.len() == K - 1);
    }

    /// Under random loss the accounted push draws what a delivered one
    /// does: a world that pushes through `push_metadata` and one that
    /// sends every member the message (the reference: what
    /// `push_metadata` did when every push was an event) lose the same
    /// pushes and leave the engine's RNG stream at the same position —
    /// the next 64 loss draws fall alike.
    #[test]
    fn an_accounted_push_takes_the_loss_draw() {
        let run = |accounted: bool| {
            let (mut eng, mut sw) = settled(SimConfig {
                loss_rate: 0.3,
                ..SimConfig::default()
            });
            let (lost, sent, stats) = (eng.dropped_loss, eng.messages_sent, sw.stats);
            for owner in (0..N as u32).map(NodeIdx) {
                if accounted {
                    sw.push_metadata(&mut eng, owner);
                    continue;
                }
                let size = sw.meta_push_size(owner);
                for m in members(&sw, owner) {
                    let msg = SeaweedMsg::MetaPush { owner };
                    sw.overlay
                        .send_app(&mut eng, owner, m, msg, size, TrafficClass::Maintenance);
                }
            }
            let lost = eng.dropped_loss - lost;
            let queued = eng.messages_sent - sent;
            let next_draws: Vec<bool> = (0..64)
                .map(|_| {
                    let before = eng.dropped_loss;
                    let msg = SeaweedMsg::MetaPush { owner: NodeIdx(0) };
                    sw.overlay.send_app(
                        &mut eng,
                        NodeIdx(0),
                        NodeIdx(1),
                        msg,
                        0,
                        TrafficClass::Maintenance,
                    );
                    eng.dropped_loss > before
                })
                .collect();
            let tx = eng.metrics().counter("sim.tx_bytes.maintenance");
            let accounted = sw.stats.meta_pushes_accounted - stats.meta_pushes_accounted;
            (lost, next_draws, tx, queued, accounted)
        };
        let (lost, next_draws, tx, queued, accounted) = run(true);
        let (ref_lost, ref_next_draws, ref_tx, ref_queued, _) = run(false);
        assert!(accounted >= 100, "only {accounted} pushes were accounted");
        assert!(lost >= 30, "only {lost} pushes were lost");
        assert_eq!(queued + accounted, ref_queued);
        assert_eq!((lost, next_draws, tx), (ref_lost, ref_next_draws, ref_tx));
    }
}
