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
