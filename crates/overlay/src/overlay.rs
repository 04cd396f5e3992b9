//! The overlay orchestrator: join, leafset maintenance, prefix routing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seaweed_sim::{Engine, NodeIdx, TrafficClass};
use seaweed_types::{Duration, Id, IdRange, Time};

use crate::events::OverlayEvents;
use crate::node::{dedup_members, LeafHalf, NodeState, ReplicaSet, HALF_CAP};
use crate::ring::{RingIndex, ServedArc};
use crate::wire;

/// Engine type every overlay-based application runs on.
pub type OverlayEngine<A> = Engine<OverlayMsg<A>>;

/// Leafset heartbeat period (paper: 30 s).
pub const HEARTBEAT_PERIOD: Duration = Duration::from_secs(30);
/// How long after a failure its leafset neighbors notice: one
/// heartbeat period plus a grace; jittered per detector.
const DETECT_DELAY: Duration = Duration::from_secs(40);
/// Period of the leafset anti-entropy probe (MSPastry-style): each
/// joined node periodically pulls one leafset member's leafset and
/// merges it, repairing asymmetric views left by lost Announces.
pub const LEAFSET_REFRESH: Duration = Duration::from_secs(60);

/// Overlay configuration; defaults are the paper's (§4.3.1).
#[derive(Clone, Debug)]
pub struct OverlayConfig {
    /// Digit width: ids are base-2^b sequences (paper: 4).
    pub b: u8,
    /// Leafset size l (l/2 per side; paper: 8). Even, at least 2 and at
    /// most `2 × HALF_CAP` — [`Overlay::new`] rejects anything else.
    pub leafset: usize,
    /// Seed for id assignment jitter-free operations (bootstrap pick,
    /// detection jitter).
    pub seed: u64,
}

impl Default for OverlayConfig {
    fn default() -> Self {
        OverlayConfig {
            b: 4,
            leafset: 8,
            seed: 0,
        }
    }
}

/// Messages exchanged by the overlay; `A` is the application payload.
/// `Clone` lets the engine's fault layer deliver duplicated copies.
#[derive(Clone, Debug)]
pub enum OverlayMsg<A> {
    /// A routed message heading for the live node closest to `key`.
    /// `size` is the application payload's wire size, preserved across
    /// hops for bandwidth accounting.
    Route {
        key: Id,
        origin: NodeIdx,
        hops: u8,
        size: u32,
        payload: A,
    },
    /// A join request being routed toward the joiner's id.
    JoinRequest { joiner: NodeIdx, hops: u8 },
    /// One routing-table row offered to a joiner by a node on the join
    /// path.
    RtRow { entries: Vec<NodeIdx> },
    /// The join root's leafset, completing the join. The joiner seeds its
    /// leafset from the ground-truth ring (crate docs), so the members are
    /// charged on the wire but not materialised: senders leave this empty.
    JoinReply { leafset: Vec<NodeIdx> },
    /// A freshly joined node introducing itself to its leafset.
    Announce,
    /// Leafset repair request (the reply carries the peer's leafset).
    LeafsetPull,
    /// Leafset repair reply.
    LeafsetPush { members: Vec<NodeIdx> },
    /// A direct application message to a known endsystem.
    App(A),
}

/// Events surfaced to the application layer.
#[derive(Debug)]
pub enum OverlayEvent<A> {
    /// A routed message reached the node responsible for `key`.
    Deliver {
        node: NodeIdx,
        key: Id,
        origin: NodeIdx,
        hops: u8,
        payload: A,
    },
    /// A direct application message arrived.
    AppMessage {
        node: NodeIdx,
        from: NodeIdx,
        payload: A,
    },
    /// `node` completed the join protocol and is a full overlay member.
    Joined { node: NodeIdx },
    /// `joined` entered `node`'s leafset.
    NeighborJoined { node: NodeIdx, joined: NodeIdx },
    /// `node` detected the failure of leafset neighbor `failed` (one
    /// detection delay after the fact) and repaired its leafset.
    NeighborFailed { node: NodeIdx, failed: NodeIdx },
}

/// Counters exposed for experiments and tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct OverlayStats {
    pub joins: u64,
    pub join_retries: u64,
    pub leafset_repairs: u64,
    /// Leafset rebuilds performed while healing a network partition.
    pub partition_repairs: u64,
    /// Periodic leafset anti-entropy pulls the protocol performed:
    /// simulated as messages, or elided because the pair was synced.
    pub leafset_refreshes: u64,
    /// The pulls among `leafset_refreshes` that landed on a synced pair
    /// and were charged as a standing rate instead of being sent. A node
    /// without a refresh timer is counted up to its last wake-up; see
    /// [`Overlay::settle_elided_pulls`].
    pub leafset_pulls_elided: u64,
    /// Synced pairs un-synced by a stamp bump.
    pub leafset_resyncs: u64,
    /// Stale-entry probes charged while routing around departed nodes.
    pub probes: u64,
    pub routed_messages: u64,
    pub delivered_messages: u64,
    pub total_hops: u64,
    pub max_hops: u8,
}

// Timer-tag space: the top two bits select the subsystem. Tags with the
// top two bits clear belong to the application layer.
/// RNG stream constants (registered in lint.toml `[[stream]]`): the
/// overlay's maintenance draws and the id-assignment helper each own a
/// stream so their draw orders survive refactors independently.
const OVERLAY_STREAM: u64 = 0x0ea1_a700_1a7e_5700;
const ID_ASSIGN_STREAM: u64 = 0x01d5_0f5e_aeed;
/// The refresh jitter's own stream: one stateless draw per (node, turn),
/// so a node's schedule of turns is the same whether or not a timer was
/// armed for each of them, and draws nothing from `OVERLAY_STREAM`.
const LS_REFRESH_STREAM: u64 = 0x15f2_e5e7_71b7_e200;

const TAG_KIND_SHIFT: u32 = 62;
const TAG_KIND_MASK: u64 = 0b11 << TAG_KIND_SHIFT;
/// A failure-detection timer: the watched node's session (mod 2³⁰) in
/// bits 32..62 above its index — see [`Overlay::fail_tag`].
const TAG_FAIL: u64 = 0b11 << TAG_KIND_SHIFT;
const TAG_JOIN_RETRY: u64 = 0b10 << TAG_KIND_SHIFT;
const TAG_LS_REFRESH: u64 = 0b01 << TAG_KIND_SHIFT;
const TAG_SESSION_MASK: u32 = (1 << 30) - 1;

/// Is this timer tag owned by the overlay (vs the application)?
#[must_use]
pub fn is_overlay_tag(tag: u64) -> bool {
    tag >> TAG_KIND_SHIFT != 0
}

/// The Pastry overlay over all simulated endsystems.
#[derive(Debug)]
pub struct Overlay {
    cfg: OverlayConfig,
    ids: Vec<Id>,
    nodes: Vec<NodeState>,
    /// Ground truth of *joined, live* nodes (the oracle used for
    /// membership convergence; see crate docs): the sorted-vec universe
    /// plus a live bitset. The protocol layer reads it too, on every
    /// membership change — the metadata and vertex repairs ask it their
    /// replica-set questions ([`Overlay::closest_joined`],
    /// [`Overlay::served_arc`]) — and uses its membership-ignoring range
    /// scans.
    index: RingIndex,
    /// Joined live nodes as a dense list for O(1) random bootstrap picks.
    joined_list: Vec<NodeIdx>,
    joined_pos: Vec<usize>,
    /// Reverse leafset index: `listed_by[n]` holds every node whose
    /// leafset currently contains `n`. Failure detection is armed from
    /// this set — leafset views can be asymmetric, so the dead node's own
    /// view is *not* a valid list of its watchers. Each list is kept
    /// sorted and duplicate-free (≈ l entries): iteration is ascending,
    /// which the per-detector jitter draws rely on.
    listed_by: Vec<Vec<u32>>,
    /// Per-node anti-entropy state: rotation, schedule of turns, and
    /// which pairs are synced.
    refresh: Vec<Refresh>,
    /// Availability session per node, bumped in [`Overlay::node_up`]. A
    /// detection timer carries its watched node's session, so one armed
    /// before the node came back up fires as a no-op.
    session: Vec<u32>,
    /// Emptied `LeafsetPush` member buffers awaiting reuse, at most
    /// [`SPARE_PUSH_MAX`]. A buffer is owned by exactly one party at a
    /// time: this list, then the Pull handler filling it, then the
    /// in-flight message, then the Push handler that merges it and hands
    /// it back. The engine delivers a duplicated or multicast payload by
    /// value ([`seaweed_sim::Payload::into_owned`] clones while copies
    /// still share it), so the buffer handed back is never one another
    /// in-flight copy can still read.
    spare_push: Vec<Vec<NodeIdx>>,
    rng: StdRng,
    rows: usize,
    pub stats: OverlayStats,
}

const NO_POS: usize = usize::MAX;

/// Anti-entropy state of one node `n`.
///
/// The ordered pair (n → p), p a leafset member of n, is **synced** when
/// a real exchange completed and a pull of p by n, answered and delivered
/// on the spot, would merge nothing into n's leafset and fill no
/// routing-table slot ([`Overlay::pull_is_noop`]), and neither node's
/// stamp has been bumped since. A synced pair's turns send nothing. Every
/// input of that predicate is guarded by a [`Overlay::bump`] placed
/// before the change, which un-syncs the pairs on either side of the
/// bumped node.
///
/// A node whose pairs are all synced is **asleep**: it arms no refresh
/// timer and its turns are a standing rate at both ends of each pair.
/// An awake node's timer fires every turn, and a turn that lands on a
/// synced pair is charged on the spot.
#[derive(Clone, Copy, Debug, Default)]
struct Refresh {
    /// Version of everything a pull of or by this node depends on.
    stamp: u32,
    /// Bit `i`: the pair (n → `members(n).nth(i)`) is synced. Member
    /// positions only move when the halves change, which bumps.
    synced: u16,
    /// How many pairs (q → n) are synced.
    synced_by: u16,
    /// While asleep with members: Σ `leafset_msg(|members(p)|)` over
    /// them, the push bytes one rotation receives. Zero while awake.
    asleep_push_bytes: u32,
    /// Σ `PULL_WEIGHT / |members(q)|` over the sleeping q that list n:
    /// the rate, in pulls per `PULL_WEIGHT` periods, at which n is
    /// pulled unseen.
    pulled_weight: u32,
    /// The fraction of a turn the standing rate had charged towards the
    /// next one when n was last woken; the next turn charged on the spot
    /// is charged that much less.
    prepaid: f32,
    /// Rotation cursor into the (deduplicated) members.
    pos: u32,
    /// Turns taken so far; indexes the jitter draws.
    turns: u32,
    /// When the next turn is due — fired by a timer if `armed`, taken
    /// retroactively by [`Overlay::wake`] if not.
    next_turn: Time,
    /// Is a `TAG_LS_REFRESH` timer pending? A joined node runs without
    /// one exactly while it is asleep.
    armed: bool,
}

/// lcm(1..=2 × HALF_CAP): `PULL_WEIGHT / |members|` is exact for every
/// member count, so pair weights add and subtract without drift.
const PULL_WEIGHT: u32 = 720_720;

/// All-ones over `count` member positions.
fn all_synced(count: usize) -> u16 {
    ((1u32 << count) - 1) as u16
}

/// Direction of a ground-truth ring walk.
#[derive(Clone, Copy, Debug)]
enum Walk {
    Cw,
    Ccw,
}

/// Bound on [`Overlay::spare_push_buffers`]: a handful covers the pushes
/// in flight at once; beyond it returned buffers are simply dropped.
pub const SPARE_PUSH_MAX: usize = 32;

/// Where `x` would enter the leafset half `h` ordered by `dist`, if it is
/// not in it and is among the `half` nearest.
fn half_slot(
    h: &LeafHalf,
    x: NodeIdx,
    half: usize,
    dist: impl Fn(NodeIdx) -> u128,
) -> Option<usize> {
    if h.contains(&x) {
        return None;
    }
    let d = dist(x);
    let pos = h.iter().position(|&m| d < dist(m)).unwrap_or(h.len());
    (pos < half).then_some(pos)
}

/// Adds `x` to a sorted duplicate-free list (no-op if present).
fn sorted_insert(list: &mut Vec<u32>, x: u32) {
    if let Err(pos) = list.binary_search(&x) {
        list.insert(pos, x);
    }
}

/// Removes `x` from a sorted duplicate-free list (no-op if absent).
fn sorted_remove(list: &mut Vec<u32>, x: u32) {
    if let Ok(pos) = list.binary_search(&x) {
        list.remove(pos);
    }
}

impl Overlay {
    /// Creates the overlay for a fixed id assignment (one id per
    /// endsystem; ids persist across availability sessions, as in
    /// Seaweed where the endsystemId identifies the machine).
    ///
    /// # Panics
    /// Panics if `cfg.leafset` is odd, below 2 or above `2 × HALF_CAP`:
    /// the halves are fixed-capacity and every handler assumes l/2 ≥ 1.
    #[must_use]
    pub fn new(ids: Vec<Id>, cfg: OverlayConfig) -> Self {
        assert!(
            cfg.leafset.is_multiple_of(2) && (2..=2 * HALF_CAP).contains(&cfg.leafset),
            "OverlayConfig::leafset must be even and within 2..={}, got {}",
            2 * HALF_CAP,
            cfg.leafset
        );
        let rows = Id::num_digits(cfg.b);
        let cols = 1usize << cfg.b;
        let nodes = ids
            .iter()
            .map(|&id| NodeState::new(id, rows, cols))
            .collect();
        let n = ids.len();
        let index = RingIndex::new(&ids);
        Overlay {
            rng: StdRng::seed_from_u64(cfg.seed ^ OVERLAY_STREAM),
            cfg,
            ids,
            nodes,
            index,
            joined_list: Vec::new(),
            joined_pos: vec![NO_POS; n],
            listed_by: vec![Vec::new(); n],
            refresh: vec![Refresh::default(); n],
            session: vec![0; n],
            spare_push: Vec::new(),
            rows,
            stats: OverlayStats::default(),
        }
    }

    /// Random id assignment for `n` endsystems.
    #[must_use]
    pub fn random_ids(n: usize, seed: u64) -> Vec<Id> {
        let mut rng = StdRng::seed_from_u64(seed ^ ID_ASSIGN_STREAM);
        (0..n).map(|_| Id::random(&mut rng)).collect()
    }

    #[must_use]
    pub fn id_of(&self, n: NodeIdx) -> Id {
        self.ids[n.idx()]
    }

    #[must_use]
    pub fn ids(&self) -> &[Id] {
        &self.ids
    }

    #[must_use]
    pub fn config(&self) -> &OverlayConfig {
        &self.cfg
    }

    #[must_use]
    pub fn is_joined(&self, n: NodeIdx) -> bool {
        self.nodes[n.idx()].joined
    }

    #[must_use]
    pub fn num_joined(&self) -> usize {
        self.joined_list.len()
    }

    /// Deduplicated leafset members of `n` (its own, possibly stale,
    /// view).
    #[must_use]
    pub fn leafset_members(&self, n: NodeIdx) -> Vec<NodeIdx> {
        self.nodes[n.idx()].members().collect()
    }

    /// `n`'s leafset halves `(cw, ccw)`, nearest neighbor first (its own,
    /// possibly stale, view).
    #[must_use]
    pub fn leafset_halves(&self, n: NodeIdx) -> (&[NodeIdx], &[NodeIdx]) {
        let st = &self.nodes[n.idx()];
        (&st.cw, &st.ccw)
    }

    /// The nodes whose leafsets currently contain `n`, ascending — the
    /// reverse index failure detection is armed from.
    #[must_use]
    pub fn listed_by(&self, n: NodeIdx) -> &[u32] {
        &self.listed_by[n.idx()]
    }

    /// `n`'s leafset stamp: bumped before any change to what a pull of
    /// `n` would answer (as the receiver filters it) or to what `n` could
    /// learn from one.
    #[must_use]
    pub fn leafset_stamp(&self, n: NodeIdx) -> u32 {
        self.refresh[n.idx()].stamp
    }

    /// The leafset members `p` of `n` for which the pair (n → p) is
    /// synced: `n`'s pulls of `p` are a standing rate, not messages.
    #[must_use]
    pub fn synced_peers(&self, n: NodeIdx) -> Vec<NodeIdx> {
        let synced = self.refresh[n.idx()].synced;
        let members = self.nodes[n.idx()].members().enumerate();
        members
            .filter_map(|(i, p)| (synced & 1 << i != 0).then_some(p))
            .collect()
    }

    /// Is `n` joined with every pair synced and no refresh timer armed,
    /// its anti-entropy a standing rate?
    #[must_use]
    pub fn is_asleep(&self, n: NodeIdx) -> bool {
        self.nodes[n.idx()].joined && !self.refresh[n.idx()].armed
    }

    /// `n`'s rotation cursor: the number of anti-entropy turns (sent or
    /// elided) it has taken, as of its last wake-up.
    #[must_use]
    pub fn refresh_cursor(&self, n: NodeIdx) -> u32 {
        self.refresh[n.idx()].pos
    }

    /// `n`'s routing-table entry for (`row`, `col`).
    #[must_use]
    pub fn routing_slot(&self, n: NodeIdx, row: usize, col: usize) -> Option<NodeIdx> {
        self.nodes[n.idx()].rt_get(row, col)
    }

    /// Brings the rotation cursors and [`OverlayStats::leafset_refreshes`]
    /// / [`OverlayStats::leafset_pulls_elided`] up to `now` for the nodes
    /// running without a refresh timer, whose elided turns are otherwise
    /// only counted at their next wake-up.
    pub fn settle_elided_pulls(&mut self, now: Time) {
        for i in 0..self.joined_list.len() {
            self.catch_up(now, self.joined_list[i]);
        }
    }

    /// Recycled `LeafsetPush` buffers currently held (≤ [`SPARE_PUSH_MAX`]).
    #[must_use]
    pub fn spare_push_buffers(&self) -> usize {
        self.spare_push.len()
    }

    /// The `k` nodes whose ids are ring-closest to `n`'s id, nearest
    /// first, from `n`'s own leafset view — Seaweed's metadata replica
    /// set (k must be ≤ l).
    #[must_use]
    pub fn replica_set(&self, n: NodeIdx, k: usize) -> ReplicaSet {
        debug_assert!(
            k <= self.cfg.leafset,
            "replica set of {k} exceeds the leafset size {}",
            self.cfg.leafset
        );
        let members = self.nodes[n.idx()].nearest_members(&self.ids);
        members.take(k).collect()
    }

    /// The namespace range `n` believes it is responsible for.
    #[must_use]
    pub fn responsible_range(&self, n: NodeIdx) -> IdRange {
        self.nodes[n.idx()].responsible_range(&self.ids)
    }

    /// The open interval between `n`'s nearest live neighbors — the
    /// largest range in which `n` is the *only* live endsystem (its own
    /// view). Any subrange of this contains no other live node, which is
    /// the paper's condition for taking responsibility for a range's
    /// unavailable endsystems during dissemination. Note this is wider
    /// than [`Overlay::responsible_range`] and overlaps the neighbors'
    /// equivalents.
    #[must_use]
    pub fn sole_coverage_range(&self, n: NodeIdx) -> IdRange {
        let st = &self.nodes[n.idx()];
        match (st.ccw.first(), st.cw.first()) {
            (None, None) => IdRange::FULL,
            (ccw, cw) => {
                let pred = self.ids[ccw.or(cw).expect("nonempty").idx()];
                let succ = self.ids[cw.or(ccw).expect("nonempty").idx()];
                IdRange::between(pred.wrapping_add(1), succ)
            }
        }
    }

    /// Ground truth: the joined live nodes around `id`, ring-closest first
    /// with the smaller id breaking a tie, at most `k` — the replica set
    /// of an arbitrary id, for the repairs that look for the first
    /// acceptable replacement in it (the caller charges the traffic the
    /// real membership exchange would cost). Read off the ring index as
    /// far as the caller consumes it.
    pub fn closest_joined(&self, id: Id, k: usize) -> impl Iterator<Item = NodeIdx> + '_ {
        self.index.nearest_live(id).take(k)
    }

    /// Ground truth: the ids whose `k` ring-closest joined live nodes
    /// include `x` — `None` if `x` is not one itself.
    #[must_use]
    pub fn served_arc(&self, x: NodeIdx, k: usize) -> Option<ServedArc> {
        self.index.served_arc(x, k)
    }

    /// Candidate endsystems for covering `key`: the `k` ring-closest
    /// members of the namespace *universe* (up or down — a delegator's
    /// replicated metadata knows the ids either way), nearest first with
    /// the smaller id breaking ties. The first entry is the presumptive
    /// owner-side replica a plain key route would reach; the recovery
    /// paths (reissue divert, hedge backup) take the first *live* entry
    /// after it.
    #[must_use]
    pub fn cover_candidates(&self, key: Id, k: usize) -> Vec<NodeIdx> {
        self.index.around(key, k, &self.ids)
    }

    /// Ground-truth closest joined live node to `key`, for tests and
    /// instrumentation; no protocol logic calls it. The ground-truth
    /// reads that *are* on the churn path are [`Overlay::closest_joined`]
    /// and [`Overlay::served_arc`] (once per repaired owner or vertex and
    /// once per `NeighborJoined`) and the leafset rebuild.
    #[must_use]
    pub fn oracle_root(&self, key: Id) -> Option<NodeIdx> {
        self.index.nearest_live(key).next()
    }

    // ------------------------------------------------------------ events

    /// Must be called when the engine reports `NodeUp`.
    pub fn node_up<A: Clone>(
        &mut self,
        eng: &mut OverlayEngine<A>,
        n: NodeIdx,
    ) -> OverlayEvents<A> {
        // The node is back: detection timers still pending for its
        // previous session fire as no-ops.
        self.session[n.idx()] = self.session[n.idx()].wrapping_add(1);
        self.bump(eng, n);
        self.unlist_all(n);
        self.nodes[n.idx()].reset();
        self.stats.joins += 1;
        if self.joined_list.is_empty() {
            // First node: instant singleton network.
            return self.complete_join(eng, n);
        }
        self.start_join(eng, n);
        OverlayEvents::new()
    }

    fn start_join<A: Clone>(&mut self, eng: &mut OverlayEngine<A>, n: NodeIdx) {
        let bootstrap = self.joined_list[self.rng.gen_range(0..self.joined_list.len())];
        eng.send(
            n,
            bootstrap,
            OverlayMsg::JoinRequest { joiner: n, hops: 0 },
            wire::JOIN_REQUEST,
            TrafficClass::Overlay,
        );
        // Retry in case the request or reply is lost to churn; a no-op if
        // the join has completed by then (the engine drops it if the node
        // goes down first).
        eng.set_timer(n, HEARTBEAT_PERIOD * 2, TAG_JOIN_RETRY);
    }

    /// The tag of a detection timer watching `watched` in its current
    /// session.
    fn fail_tag(&self, watched: NodeIdx) -> u64 {
        let session = self.session[watched.idx()] & TAG_SESSION_MASK;
        TAG_FAIL | u64::from(session) << 32 | u64::from(watched.0)
    }

    /// Must be called when the engine reports `NodeDown`.
    pub fn node_down<A: Clone>(&mut self, eng: &mut OverlayEngine<A>, n: NodeIdx) {
        let was_joined = self.nodes[n.idx()].joined;
        if was_joined {
            self.index.remove(n);
            let pos = self.joined_pos[n.idx()];
            if pos != NO_POS {
                self.joined_list.swap_remove(pos);
                if let Some(&moved) = self.joined_list.get(pos) {
                    self.joined_pos[moved.idx()] = pos;
                }
                self.joined_pos[n.idx()] = NO_POS;
            }
        }
        // Every node whose leafset lists `n` will notice after missing
        // heartbeats. The reverse index is authoritative here: leafset
        // views are asymmetric under churn, so `n`'s own view may omit
        // nodes that still list it (and would otherwise never detect).
        for i in 0..self.listed_by[n.idx()].len() {
            let m = NodeIdx(self.listed_by[n.idx()][i]);
            // What `m` answers to a pull changes once the receiver
            // filters `n` out as dead.
            self.bump(eng, m);
            if eng.is_up(m) {
                let jitter =
                    Duration::from_micros(self.rng.gen_range(0..HEARTBEAT_PERIOD.as_micros()));
                eng.set_timer(m, DETECT_DELAY + jitter, self.fail_tag(n));
            }
        }
        self.bump(eng, n);
        // The engine auto-cancels n's own timers (join retry and
        // refresh included).
        self.refresh[n.idx()].armed = false;
        self.unlist_all(n);
        self.nodes[n.idx()].reset();
        self.update_standing_rate(eng, n);
    }

    /// Must be called when the engine reports `PartitionStart`: every
    /// leafset edge straddling the boundary stops carrying heartbeats,
    /// so both sides arm the same detection timers a real failure would
    /// — except the watched nodes stay up, which is why
    /// the (internal) failure detector treats up-but-unreachable
    /// as failed.
    pub fn partition_started<A: Clone>(&mut self, eng: &mut OverlayEngine<A>, members: &[NodeIdx]) {
        let mut inside = vec![false; self.ids.len()];
        for m in members {
            inside[m.idx()] = true;
        }
        // Watchers outside the boundary stop hearing members' heartbeats.
        // (`listed_by` iterates in ascending order, keeping the jitter
        // draws deterministic.)
        for &m in members {
            for i in 0..self.listed_by[m.idx()].len() {
                let w = self.listed_by[m.idx()][i];
                if inside[w as usize] {
                    continue;
                }
                let d = NodeIdx(w);
                if !eng.is_up(d) {
                    continue;
                }
                // A pull across the cut is lost, not a no-op.
                self.bump(eng, d);
                let jitter =
                    Duration::from_micros(self.rng.gen_range(0..HEARTBEAT_PERIOD.as_micros()));
                eng.set_timer(d, DETECT_DELAY + jitter, self.fail_tag(m));
            }
        }
        // Members stop hearing the outsiders they watch.
        for &m in members {
            if !eng.is_up(m) {
                continue;
            }
            // (Both halves, not deduplicated: one timer per entry, as
            // each entry is a heartbeat edge.)
            // (A pull across the cut is lost, here too.)
            if self.nodes[m.idx()].leafset().any(|t| !inside[t.idx()]) {
                self.bump(eng, m);
            }
            for t in self.nodes[m.idx()].leafset() {
                if inside[t.idx()] {
                    continue;
                }
                let jitter =
                    Duration::from_micros(self.rng.gen_range(0..HEARTBEAT_PERIOD.as_micros()));
                eng.set_timer(m, DETECT_DELAY + jitter, self.fail_tag(t));
            }
        }
    }

    /// Must be called when the engine reports `PartitionEnd`: each live
    /// joined member converges its leafset back to the full ring and
    /// announces itself, so far-side nodes (which evicted the members
    /// after detection) re-admit them organically via
    /// `NeighborJoined` — which is also what re-triggers the metadata
    /// handover in the layer above. Detection timers still pending for
    /// boundary edges resolve themselves: `detect_failure` ignores
    /// reachable live nodes.
    pub fn partition_healed<A: Clone>(&mut self, eng: &mut OverlayEngine<A>, members: &[NodeIdx]) {
        for &m in members {
            if !eng.is_up(m) || !self.nodes[m.idx()].joined {
                continue;
            }
            self.stats.partition_repairs += 1;
            self.bump(eng, m);
            self.rebuild_leafset_where(m, &|x| eng.reachable(m, x));
            self.announce_to_leafset(eng, m);
            self.update_standing_rate(eng, m);
        }
    }

    /// Must be called for timers whose tag satisfies [`is_overlay_tag`].
    pub fn on_timer<A: Clone>(
        &mut self,
        eng: &mut OverlayEngine<A>,
        node: NodeIdx,
        tag: u64,
    ) -> OverlayEvents<A> {
        match tag & TAG_KIND_MASK {
            // Armed in a session of the watched node that has since ended.
            TAG_FAIL if tag != self.fail_tag(NodeIdx(tag as u32)) => {}
            TAG_FAIL => return self.detect_failure(eng, node, NodeIdx(tag as u32)),
            TAG_LS_REFRESH => self.on_leafset_refresh(eng, node),
            // The join completed before the retry came due.
            TAG_JOIN_RETRY if self.nodes[node.idx()].joined => {}
            // Everyone else left while we were joining: become the
            // singleton network.
            TAG_JOIN_RETRY if self.joined_list.is_empty() => return self.complete_join(eng, node),
            TAG_JOIN_RETRY => {
                self.stats.join_retries += 1;
                self.start_join(eng, node);
            }
            _ => {}
        }
        OverlayEvents::new()
    }

    /// Periodic leafset anti-entropy (MSPastry's leafset probing): pull
    /// one leafset member's leafset per period, rotating through the
    /// (deduplicated) members. The push reply is merged into the leafset,
    /// repairing asymmetric views — e.g. a neighbor whose join Announce
    /// was lost and who would otherwise stay invisible forever
    /// (heartbeats carry no membership). A turn that lands on a synced
    /// pair sends nothing, and a node whose pairs are all synced stops
    /// arming the timer until [`Overlay::bump`] wakes it.
    fn on_leafset_refresh<A: Clone>(&mut self, eng: &mut OverlayEngine<A>, n: NodeIdx) {
        self.refresh[n.idx()].armed = false;
        if !eng.is_up(n) || !self.nodes[n.idx()].joined {
            return; // restarting; complete_join re-arms the probe
        }
        match self.take_turn(n) {
            Some((peer, false)) => eng.send(
                n,
                peer,
                OverlayMsg::LeafsetPull,
                wire::leafset_msg(1),
                TrafficClass::Overlay,
            ),
            Some((peer, true)) => self.charge_elided_pull(eng, n, peer),
            None => {}
        }
        let count = self.nodes[n.idx()].members().count();
        if self.refresh[n.idx()].synced != all_synced(count) {
            self.arm_leafset_refresh(eng, n);
        } else if count > 0 {
            self.set_asleep(eng, n, true);
        }
    }

    /// Charges both ends of the pull `n` did not send to its synced
    /// member `p`, and of the push that did not come back — less what the
    /// standing rate had already charged towards this turn before `n`
    /// was woken.
    fn charge_elided_pull<A: Clone>(&mut self, eng: &mut OverlayEngine<A>, n: NodeIdx, p: NodeIdx) {
        debug_assert!(
            self.pull_is_elidable(eng, n, p) && self.pull_is_noop(eng, n, p),
            "{n:?} -> {p:?} elided while it could merge"
        );
        let r = &mut self.refresh[n.idx()];
        let due = (1.0 - r.prepaid).max(0.0);
        r.prepaid = (r.prepaid - 1.0).max(0.0);
        let part = |bytes: u32| (bytes as f32 * due).round() as u32;
        let pull = part(wire::leafset_msg(1));
        let push = part(wire::leafset_msg(self.nodes[p.idx()].members().count()));
        eng.record_exchange(n, TrafficClass::Overlay, pull, push);
        eng.record_exchange(p, TrafficClass::Overlay, push, pull);
    }

    /// Moves `n`'s turns onto the standing rate (its pairs are all
    /// synced and it arms no timer from here on) or off it — at `n`, and
    /// at each member for its share of being pulled.
    fn set_asleep<A: Clone>(&mut self, eng: &mut OverlayEngine<A>, n: NodeIdx, asleep: bool) {
        let (cw, ccw) = (self.nodes[n.idx()].cw, self.nodes[n.idx()].ccw);
        let share = PULL_WEIGHT / dedup_members(&cw, &ccw).count() as u32;
        let mut push_bytes = 0;
        for p in dedup_members(&cw, &ccw) {
            push_bytes += wire::leafset_msg(self.nodes[p.idx()].members().count());
            let weight = &mut self.refresh[p.idx()].pulled_weight;
            *weight = if asleep {
                *weight + share
            } else {
                *weight - share
            };
            self.update_standing_rate(eng, p);
        }
        self.refresh[n.idx()].asleep_push_bytes = if asleep { push_bytes } else { 0 };
        self.update_standing_rate(eng, n);
    }

    /// `n`'s anti-entropy turn: advances the rotation and the schedule
    /// of turns, and returns the member whose turn it is (if there is
    /// any member) and whether the pull is elided, the pair being synced.
    fn take_turn(&mut self, n: NodeIdx) -> Option<(NodeIdx, bool)> {
        let r = &mut self.refresh[n.idx()];
        r.turns = r.turns.wrapping_add(1);
        r.next_turn += Self::refresh_interval(&self.cfg, n, r.turns);
        let st = &self.nodes[n.idx()];
        let count = st.members().count();
        if count == 0 {
            return None;
        }
        let i = r.pos as usize % count;
        r.pos = r.pos.wrapping_add(1);
        self.stats.leafset_refreshes += 1;
        let elided = r.synced & 1 << i != 0;
        self.stats.leafset_pulls_elided += u64::from(elided);
        st.members().nth(i).map(|peer| (peer, elided))
    }

    /// The refresh period plus up to a quarter of it, so probes across
    /// the population stay desynchronised: a stateless draw per (node,
    /// turn).
    fn refresh_interval(cfg: &OverlayConfig, n: NodeIdx, turn: u32) -> Duration {
        let key = u64::from(n.0) << 32 | u64::from(turn);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ LS_REFRESH_STREAM ^ key);
        LEAFSET_REFRESH + Duration::from_micros(rng.gen_range(0..LEAFSET_REFRESH.as_micros() / 4))
    }

    /// Arms the timer for `n`'s next turn.
    fn arm_leafset_refresh<A: Clone>(&mut self, eng: &mut OverlayEngine<A>, n: NodeIdx) {
        let r = &mut self.refresh[n.idx()];
        debug_assert!(!r.armed && r.next_turn > eng.now());
        eng.set_timer(n, r.next_turn.saturating_since(eng.now()), TAG_LS_REFRESH);
        r.armed = true;
    }

    /// Takes, retroactively, the turns a joined node without a timer has
    /// come due for: all its pairs were synced throughout (or it would
    /// have been woken), so each was an elided pull.
    fn catch_up(&mut self, now: Time, n: NodeIdx) {
        if self.refresh[n.idx()].armed || !self.nodes[n.idx()].joined {
            return;
        }
        while self.refresh[n.idx()].next_turn <= now {
            let turn = self.take_turn(n);
            debug_assert!(
                turn.is_none_or(|(_, elided)| elided),
                "{n:?} slept un-synced"
            );
        }
    }

    /// `n` is about to have an un-synced pair: puts it back on its
    /// schedule of turns, timer armed, as if it had never left it, and
    /// withdraws the standing rate it slept on.
    fn wake<A: Clone>(&mut self, eng: &mut OverlayEngine<A>, n: NodeIdx) {
        let now = eng.now();
        self.catch_up(now, n);
        let r = &mut self.refresh[n.idx()];
        if r.asleep_push_bytes != 0 {
            // The rate has charged the part of the running turn that is
            // behind us.
            let span = Self::refresh_interval(&self.cfg, n, r.turns).as_micros() as f32;
            r.prepaid += 1.0 - r.next_turn.saturating_since(now).as_micros() as f32 / span;
            self.set_asleep(eng, n, false);
        }
        if !self.refresh[n.idx()].armed && self.nodes[n.idx()].joined && eng.is_up(n) {
            self.arm_leafset_refresh(eng, n);
        }
    }

    /// Bumps `n`'s leafset stamp. Must run *before* any change to what a
    /// pull of `n` would answer as its receiver filters it (its halves;
    /// a member completing a join or going down) or to what `n` could
    /// learn from one (its halves, an emptied routing slot, its joined
    /// flag), and when a partition edge opens across it. Un-syncs every
    /// pair (n → ·) and (· → n) and wakes the pullers, so the next turn
    /// of each pair is a real exchange.
    fn bump<A: Clone>(&mut self, eng: &mut OverlayEngine<A>, n: NodeIdx) {
        let r = &mut self.refresh[n.idx()];
        r.stamp = r.stamp.wrapping_add(1);
        self.wake(eng, n);
        let synced = std::mem::take(&mut self.refresh[n.idx()].synced);
        if synced != 0 {
            let (cw, ccw) = (self.nodes[n.idx()].cw, self.nodes[n.idx()].ccw);
            for (i, p) in dedup_members(&cw, &ccw).enumerate() {
                if synced & 1 << i != 0 {
                    debug_assert!(
                        self.pull_is_noop(eng, n, p),
                        "{n:?} -> {p:?} un-synced late"
                    );
                    self.refresh[p.idx()].synced_by -= 1;
                    self.stats.leafset_resyncs += 1;
                }
            }
        }
        if self.refresh[n.idx()].synced_by == 0 {
            return;
        }
        for k in 0..self.listed_by[n.idx()].len() {
            let q = NodeIdx(self.listed_by[n.idx()][k]);
            let i = self.nodes[q.idx()].members().position(|m| m == n);
            let i = i.expect("a watcher lists the watched");
            if self.refresh[q.idx()].synced & 1 << i != 0 {
                debug_assert!(
                    self.pull_is_noop(eng, q, n),
                    "{q:?} -> {n:?} un-synced late"
                );
                self.wake(eng, q);
                self.refresh[q.idx()].synced &= !(1 << i);
                self.refresh[n.idx()].synced_by -= 1;
                self.stats.leafset_resyncs += 1;
            }
        }
        debug_assert_eq!(self.refresh[n.idx()].synced_by, 0);
    }

    /// The joined node `n` just merged a push from `p` that carried
    /// `pushed`: marks (n → p) synced if `p` is a reachable live member
    /// whose members still read `pushed`. Merging is idempotent — a
    /// member the halves turned away or evicted is farther than those
    /// that stayed, and a learnt slot stays filled — so pulling the same
    /// list again is then a no-op.
    fn note_exchange<A: Clone>(
        &mut self,
        eng: &OverlayEngine<A>,
        n: NodeIdx,
        p: NodeIdx,
        pushed: &[NodeIdx],
    ) {
        let Some(i) = self.nodes[n.idx()].members().position(|m| m == p) else {
            return;
        };
        if self.refresh[n.idx()].synced & 1 << i != 0
            || !self.pull_is_elidable(eng, n, p)
            || !self.nodes[p.idx()].members().eq(pushed.iter().copied())
        {
            return;
        }
        debug_assert!(self.pull_is_noop(eng, n, p), "{n:?} -> {p:?} synced early");
        self.refresh[n.idx()].synced |= 1 << i;
        self.refresh[p.idx()].synced_by += 1;
    }

    /// Would a pull of `p` sent by `n` now be answered and come back?
    fn pull_is_elidable<A: Clone>(&self, eng: &OverlayEngine<A>, n: NodeIdx, p: NodeIdx) -> bool {
        eng.is_up(p) && self.nodes[p.idx()].joined && eng.reachable(n, p)
    }

    /// Would merging `p`'s current members into `n`, as the `LeafsetPush`
    /// handler does, change neither `n`'s halves nor its routing table?
    fn pull_is_noop<A: Clone>(&self, eng: &OverlayEngine<A>, n: NodeIdx, p: NodeIdx) -> bool {
        self.nodes[p.idx()].members().all(|m| {
            self.knows(n, m)
                && (!eng.is_up(m)
                    || !self.nodes[m.idx()].joined
                    || self.insert_positions(n, m) == (None, None))
        })
    }

    fn detect_failure<A: Clone>(
        &mut self,
        eng: &mut OverlayEngine<A>,
        detector: NodeIdx,
        failed: NodeIdx,
    ) -> OverlayEvents<A> {
        if eng.is_up(failed) && eng.reachable(detector, failed) {
            return OverlayEvents::new(); // came back before the timeout expired
        }
        if !self.nodes[detector.idx()].in_leafset(failed) {
            return OverlayEvents::new(); // already repaired (or detector restarted)
        }
        self.bump(eng, detector);
        self.nodes[detector.idx()].remove_from_leafset(failed);
        sorted_remove(&mut self.listed_by[failed.idx()], detector.0);
        self.stats.leafset_repairs += 1;
        // Repair: converge the leafset to ground truth — restricted to
        // nodes the detector can actually reach, so a partitioned
        // detector does not "repair" its leafset with nodes on the far
        // side of the cut — charging the pull exchange the real protocol
        // performs against the farthest surviving neighbor (or nothing
        // if we are now alone).
        self.rebuild_leafset_where(detector, &|m| eng.reachable(detector, m));
        self.update_standing_rate(eng, detector);
        let peer = self.nodes[detector.idx()]
            .cw
            .last()
            .or(self.nodes[detector.idx()].ccw.last())
            .copied();
        if let Some(peer) = peer {
            eng.send(
                detector,
                peer,
                OverlayMsg::LeafsetPull,
                wire::leafset_msg(1),
                TrafficClass::Overlay,
            );
        }
        OverlayEvents::one(OverlayEvent::NeighborFailed {
            node: detector,
            failed,
        })
    }

    /// Must be called for every engine `Message` event; returns events
    /// for the application.
    pub fn on_message<A: Clone>(
        &mut self,
        eng: &mut OverlayEngine<A>,
        from: NodeIdx,
        to: NodeIdx,
        msg: OverlayMsg<A>,
    ) -> OverlayEvents<A> {
        match msg {
            OverlayMsg::App(payload) => OverlayEvents::one(OverlayEvent::AppMessage {
                node: to,
                from,
                payload,
            }),
            OverlayMsg::Route {
                key,
                origin,
                hops,
                size,
                payload,
            } => {
                self.learn(to, from);
                self.forward_or_deliver(eng, to, key, origin, hops, size, payload)
            }
            OverlayMsg::JoinRequest { joiner, hops } => {
                self.learn(to, from);
                self.handle_join_request(eng, to, joiner, hops)
            }
            OverlayMsg::RtRow { entries } => {
                for e in entries {
                    self.learn(to, e);
                }
                OverlayEvents::new()
            }
            OverlayMsg::JoinReply { leafset: _ } => {
                if self.nodes[to.idx()].joined || !eng.is_up(to) {
                    return OverlayEvents::new(); // duplicate reply
                }
                self.complete_join(eng, to)
            }
            OverlayMsg::Announce => {
                // The announcer may have died while the message was in
                // flight; inserting it would plant a leafset entry that
                // no detection timer covers.
                let mut out = OverlayEvents::new();
                if eng.is_up(from) && self.nodes[to.idx()].joined {
                    self.learn(to, from);
                    self.merge_member(eng, to, from, &mut out);
                }
                out
            }
            OverlayMsg::LeafsetPull => {
                let mut members = self.spare_push.pop().unwrap_or_default();
                members.extend(self.nodes[to.idx()].members());
                let size = wire::leafset_msg(members.len());
                eng.send(
                    to,
                    from,
                    OverlayMsg::LeafsetPush { members },
                    size,
                    TrafficClass::Overlay,
                );
                OverlayEvents::new()
            }
            OverlayMsg::LeafsetPush { mut members } => {
                // Merge, not just learn: anti-entropy pulls repair
                // asymmetric leafset views. Dead members are skipped for
                // the same reason a stale Announce is (no detection timer
                // would cover the entry).
                let mut out = OverlayEvents::new();
                let merging = self.nodes[to.idx()].joined;
                for &m in &members {
                    self.learn(to, m);
                    if merging && eng.is_up(m) && self.nodes[m.idx()].joined {
                        self.merge_member(eng, to, m, &mut out);
                    }
                }
                if merging {
                    self.note_exchange(eng, to, from, &members);
                }
                // Last read done: the buffer goes back for the next Pull.
                if self.spare_push.len() < SPARE_PUSH_MAX {
                    members.clear();
                    self.spare_push.push(members);
                }
                out
            }
        }
    }

    // ------------------------------------------------------------ joins

    fn handle_join_request<A: Clone>(
        &mut self,
        eng: &mut OverlayEngine<A>,
        at: NodeIdx,
        joiner: NodeIdx,
        hops: u8,
    ) -> OverlayEvents<A> {
        if !eng.is_up(joiner) {
            return OverlayEvents::new(); // joiner already gone
        }
        if !self.nodes[at.idx()].joined {
            // We restarted mid-route; bounce to some joined node if any.
            if let Some(&alt) = self.joined_list.first() {
                eng.send(
                    at,
                    alt,
                    OverlayMsg::JoinRequest {
                        joiner,
                        hops: hops.saturating_add(1),
                    },
                    wire::JOIN_REQUEST,
                    TrafficClass::Overlay,
                );
            }
            return OverlayEvents::new();
        }
        // Offer the joiner the routing-table row it will need at this
        // prefix depth, as in the Pastry join protocol.
        let joiner_id = self.ids[joiner.idx()];
        let at_id = self.ids[at.idx()];
        let row = at_id.prefix_len(joiner_id, self.cfg.b).min(self.rows - 1);
        let mut entries: Vec<NodeIdx> = self.nodes[at.idx()]
            .rt_row(row)
            .iter()
            .flatten()
            .copied()
            .collect();
        entries.push(at);
        let size = wire::rt_row(entries.len());
        eng.send(
            at,
            joiner,
            OverlayMsg::RtRow { entries },
            size,
            TrafficClass::Overlay,
        );

        match self.next_hop(eng, at, joiner_id) {
            Some(next) => {
                eng.send(
                    at,
                    next,
                    OverlayMsg::JoinRequest {
                        joiner,
                        hops: hops.saturating_add(1),
                    },
                    wire::JOIN_REQUEST,
                    TrafficClass::Overlay,
                );
            }
            None => {
                // We are the joiner's root: complete the join. The
                // reply is charged for our leafset plus ourselves.
                let members = self.nodes[at.idx()].members().count();
                eng.send(
                    at,
                    joiner,
                    OverlayMsg::JoinReply {
                        leafset: Vec::new(),
                    },
                    wire::leafset_msg(members + 1),
                    TrafficClass::Overlay,
                );
            }
        }
        OverlayEvents::new()
    }

    /// Finishes a join: install the ground-truth leafset (charged via the
    /// join exchange that just happened), announce to the new neighbors,
    /// register heartbeat traffic.
    fn complete_join<A: Clone>(
        &mut self,
        eng: &mut OverlayEngine<A>,
        n: NodeIdx,
    ) -> OverlayEvents<A> {
        debug_assert!(!self.nodes[n.idx()].joined);
        // A stale watcher from `n`'s last session answers pulls with a
        // member the receiver is about to stop filtering out.
        for i in 0..self.listed_by[n.idx()].len() {
            self.bump(eng, NodeIdx(self.listed_by[n.idx()][i]));
        }
        self.bump(eng, n);
        // A node joining during a partition must not seed its leafset
        // with unreachable far-side members.
        self.rebuild_leafset_where(n, &|m| eng.reachable(n, m));
        self.nodes[n.idx()].joined = true;
        self.index.insert(n);
        self.joined_pos[n.idx()] = self.joined_list.len();
        self.joined_list.push(n);

        self.announce_to_leafset(eng, n);
        self.update_standing_rate(eng, n);
        let r = &mut self.refresh[n.idx()];
        r.next_turn = eng.now() + Self::refresh_interval(&self.cfg, n, r.turns);
        self.arm_leafset_refresh(eng, n);
        OverlayEvents::one(OverlayEvent::Joined { node: n })
    }

    /// `n` learns and sends an Announce to every (deduplicated) member of
    /// its leafset.
    fn announce_to_leafset<A: Clone>(&mut self, eng: &mut OverlayEngine<A>, n: NodeIdx) {
        let (cw, ccw) = (self.nodes[n.idx()].cw, self.nodes[n.idx()].ccw);
        for m in dedup_members(&cw, &ccw) {
            self.learn(n, m);
            eng.send(
                n,
                m,
                OverlayMsg::Announce,
                wire::ANNOUNCE,
                TrafficClass::Overlay,
            );
        }
    }

    /// The joined node `at` heard of the live, joined node `m` (from
    /// `m`'s own Announce or a peer's leafset push): merge it into the
    /// leafset, surfacing `NeighborJoined` if that changed it.
    fn merge_member<A: Clone>(
        &mut self,
        eng: &mut OverlayEngine<A>,
        at: NodeIdx,
        m: NodeIdx,
        out: &mut OverlayEvents<A>,
    ) {
        if self.leafset_insert(eng, at, m) {
            out.push(OverlayEvent::NeighborJoined {
                node: at,
                joined: m,
            });
        }
    }

    // --------------------------------------------------------- leafsets

    /// Rebuilds `n`'s leafset from the ground-truth ring (hybrid
    /// convergence; the caller charges the protocol messages), restricted
    /// to ring members satisfying `keep` — used to exclude nodes across
    /// an open partition boundary, which are joined and live but
    /// unreachable.
    fn rebuild_leafset_where(&mut self, n: NodeIdx, keep: &dyn Fn(NodeIdx) -> bool) {
        let half = self.cfg.leafset / 2;
        let id = self.ids[n.idx()];
        // The walks skip the exact-id match, i.e. `n` itself.
        let (mut cw, mut ccw) = (LeafHalf::default(), LeafHalf::default());
        self.walk_neighbors(Walk::Cw, id, half, keep, &mut |m| cw.push(m));
        self.walk_neighbors(Walk::Ccw, id, half, keep, &mut |m| ccw.push(m));
        let st = &mut self.nodes[n.idx()];
        let (old_cw, old_ccw) = (st.cw, st.ccw);
        st.cw = cw;
        st.ccw = ccw;
        // Reverse index: drop the pre-change members, record the new.
        for m in old_cw.iter().chain(old_ccw.iter()) {
            sorted_remove(&mut self.listed_by[m.idx()], n.0);
        }
        for m in cw.iter().chain(ccw.iter()) {
            sorted_insert(&mut self.listed_by[m.idx()], n.0);
        }
    }

    /// Drops every reverse-index entry held on behalf of `n`'s leafset
    /// (called before the leafset is cleared on restart/shutdown).
    fn unlist_all(&mut self, n: NodeIdx) {
        for m in self.nodes[n.idx()].leafset() {
            sorted_remove(&mut self.listed_by[m.idx()], n.0);
        }
    }

    /// Where `x` would enter `n`'s `(cw, ccw)` halves: the position in
    /// each half that does not hold it yet and where it is among the l/2
    /// nearest.
    fn insert_positions(&self, n: NodeIdx, x: NodeIdx) -> (Option<usize>, Option<usize>) {
        if n == x {
            return (None, None);
        }
        let half = self.cfg.leafset / 2;
        let id = self.ids[n.idx()];
        let ids = &self.ids;
        let st = &self.nodes[n.idx()];
        (
            half_slot(&st.cw, x, half, |m| id.cw_dist(ids[m.idx()])),
            half_slot(&st.ccw, x, half, |m| id.ccw_dist(ids[m.idx()])),
        )
    }

    /// Inserts `x` into `n`'s leafset halves if it is among the l/2
    /// nearest on either side. Returns true if the leafset changed. The
    /// reverse index is touched only then: `x` gains `n` as a watcher,
    /// and a member pushed off the far end of a half loses it unless the
    /// other half still holds that member.
    fn leafset_insert<A: Clone>(
        &mut self,
        eng: &mut OverlayEngine<A>,
        n: NodeIdx,
        x: NodeIdx,
    ) -> bool {
        let (cw_pos, ccw_pos) = self.insert_positions(n, x);
        if cw_pos.is_none() && ccw_pos.is_none() {
            return false;
        }
        self.bump(eng, n);
        let half = self.cfg.leafset / 2;
        let st = &mut self.nodes[n.idx()];
        let evicted = [
            cw_pos.and_then(|pos| st.cw.insert_capped(pos, x, half)),
            ccw_pos.and_then(|pos| st.ccw.insert_capped(pos, x, half)),
        ];
        for e in evicted.into_iter().flatten() {
            if !st.in_leafset(e) {
                sorted_remove(&mut self.listed_by[e.idx()], n.0);
            }
        }
        sorted_insert(&mut self.listed_by[x.idx()], n.0);
        self.update_standing_rate(eng, n);
        true
    }

    /// The live ring index. The protocol layer uses its universe scans
    /// for range enumeration.
    #[must_use]
    pub fn ring_index(&self) -> &RingIndex {
        &self.index
    }

    /// Visits the nearest `count` joined live nodes from `id` in the
    /// given direction — skipping an exact-id match and anything failing
    /// `keep` — nearest first.
    fn walk_neighbors(
        &self,
        dir: Walk,
        id: Id,
        count: usize,
        keep: &dyn Fn(NodeIdx) -> bool,
        visit: &mut dyn FnMut(NodeIdx),
    ) {
        if self.index.live_count() == 0 || count == 0 {
            return;
        }
        let mut left = count;
        let take = |n: NodeIdx| {
            if self.ids[n.idx()] != id && keep(n) {
                visit(n);
                left -= 1;
            }
            left > 0
        };
        // `all` stops at the first `false`, i.e. once `count` were taken.
        match dir {
            Walk::Cw => self.index.cw_live_from(id).all(take),
            Walk::Ccw => self.index.ccw_live_from(id).all(take),
        };
    }

    /// Registers `n`'s standing Overlay-class traffic, everything the
    /// protocol exchanges on schedule without the simulator scheduling
    /// it: a heartbeat per member per heartbeat period each way; while
    /// `n` sleeps, a pull out and a member's push back once per refresh
    /// period; and for each sleeping node that lists `n`, the mirror
    /// image once per that node's rotation. The jitter puts the mean
    /// refresh period an eighth above `LEAFSET_REFRESH`.
    fn update_standing_rate<A: Clone>(&self, eng: &mut OverlayEngine<A>, n: NodeIdx) {
        let st = &self.nodes[n.idx()];
        if !st.joined {
            eng.set_standing(n, TrafficClass::Overlay, 0.0, 0.0);
            return;
        }
        let r = &self.refresh[n.idx()];
        let count = st.members().count();
        let heartbeats = count as f64 * f64::from(wire::HEARTBEAT) / HEARTBEAT_PERIOD.as_secs_f64();
        let period = LEAFSET_REFRESH.as_secs_f64() * 1.125;
        let pulled = f64::from(r.pulled_weight) / f64::from(PULL_WEIGHT) / period;
        let pull = f64::from(wire::leafset_msg(1));
        let push = f64::from(wire::leafset_msg(count));
        let (mut tx, mut rx) = (pulled * push, pulled * pull);
        if r.asleep_push_bytes != 0 {
            tx += pull / period;
            rx += f64::from(r.asleep_push_bytes) / (count as f64 * period);
        }
        eng.set_standing(
            n,
            TrafficClass::Overlay,
            (heartbeats + tx) as f32,
            (heartbeats + rx) as f32,
        );
    }

    // ---------------------------------------------------------- routing

    /// Injects a message to be routed to the live node closest to `key`.
    /// `size` is the application payload size (per-hop overhead added);
    /// routed traffic is always accounted as Query class. Returns
    /// delivery events immediately if the sender is itself the root.
    pub fn route<A: Clone>(
        &mut self,
        eng: &mut OverlayEngine<A>,
        from: NodeIdx,
        key: Id,
        payload: A,
        size: u32,
    ) -> OverlayEvents<A> {
        self.stats.routed_messages += 1;
        self.forward_or_deliver(eng, from, key, from, 0, size, payload)
    }

    /// Sends a direct application message to a known endsystem.
    pub fn send_app<A: Clone>(
        &mut self,
        eng: &mut OverlayEngine<A>,
        from: NodeIdx,
        to: NodeIdx,
        payload: A,
        size: u32,
        class: TrafficClass,
    ) {
        eng.send(
            from,
            to,
            OverlayMsg::App(payload),
            wire::HEADER + size,
            class,
        );
    }

    /// [`Overlay::send_app`] for a message the sender knows would change
    /// nothing at `to`: sent through [`seaweed_sim::Engine::send_accounted`],
    /// so charged, cut, lost and duplicated as a direct message of `size`
    /// would be, and delivered to no handler.
    pub fn send_app_accounted<A: Clone>(
        &self,
        eng: &mut OverlayEngine<A>,
        from: NodeIdx,
        to: NodeIdx,
        size: u32,
        class: TrafficClass,
    ) {
        eng.send_accounted(from, to, wire::HEADER + size, class);
    }

    #[allow(clippy::too_many_arguments)]
    fn forward_or_deliver<A: Clone>(
        &mut self,
        eng: &mut OverlayEngine<A>,
        at: NodeIdx,
        key: Id,
        origin: NodeIdx,
        hops: u8,
        size: u32,
        payload: A,
    ) -> OverlayEvents<A> {
        const MAX_HOPS: u8 = 128;
        let next = if hops >= MAX_HOPS {
            None
        } else {
            self.next_hop(eng, at, key)
        };
        match next {
            Some(next) => {
                eng.send(
                    at,
                    next,
                    OverlayMsg::Route {
                        key,
                        origin,
                        hops: hops + 1,
                        size,
                        payload,
                    },
                    size + wire::ROUTE_OVERHEAD,
                    TrafficClass::Query,
                );
                OverlayEvents::new()
            }
            None => {
                self.stats.delivered_messages += 1;
                self.stats.total_hops += u64::from(hops);
                self.stats.max_hops = self.stats.max_hops.max(hops);
                OverlayEvents::one(OverlayEvent::Deliver {
                    node: at,
                    key,
                    origin,
                    hops,
                    payload,
                })
            }
        }
    }

    /// Greedy prefix/proximity routing step: the known node strictly
    /// ring-closer to `key` than `at`, preferring the routing-table entry
    /// for the next digit. Entries pointing at departed nodes are probed,
    /// purged and charged, modelling MSPastry's per-hop retransmission.
    /// `None` means `at` believes it is the root.
    fn next_hop<A: Clone>(
        &mut self,
        eng: &mut OverlayEngine<A>,
        at: NodeIdx,
        key: Id,
    ) -> Option<NodeIdx> {
        let at_id = self.ids[at.idx()];
        if at_id == key {
            return None;
        }
        loop {
            let cand = self.best_candidate(at, key)?;
            if eng.is_up(cand) && self.nodes[cand.idx()].joined {
                return Some(cand);
            }
            // Stale entry: charge a probe, purge, try again.
            self.stats.probes += 1;
            eng.record_probe(at, wire::PROBE);
            self.purge(eng, at, cand);
        }
    }

    /// Best known strictly-closer candidate, or `None` if none is closer
    /// (i.e. we are locally the root). Prefers the Pastry routing-table
    /// entry matching the key's next digit, then falls back to the
    /// numerically closest known node.
    fn best_candidate(&self, at: NodeIdx, key: Id) -> Option<NodeIdx> {
        let at_id = self.ids[at.idx()];
        let my_dist = at_id.ring_dist(key);
        let st = &self.nodes[at.idx()];
        // Preferred: the routing-table entry for the next digit.
        let row = at_id.prefix_len(key, self.cfg.b);
        if row < self.rows {
            let col = key.digit(row, self.cfg.b) as usize;
            if let Some(e) = st.rt_get(row, col) {
                if self.ids[e.idx()].ring_dist(key) < my_dist {
                    return Some(e);
                }
            }
        }
        // Fallback: closest of leafset + routing table.
        let mut best: Option<(NodeIdx, u128)> = None;
        let consider = |best: &mut Option<(NodeIdx, u128)>, m: NodeIdx| {
            let d = self.ids[m.idx()].ring_dist(key);
            match best {
                None => *best = Some((m, d)),
                Some((_, bd)) if d < *bd => *best = Some((m, d)),
                _ => {}
            }
        };
        for m in st.leafset() {
            consider(&mut best, m);
        }
        for e in st.rt_iter() {
            consider(&mut best, e);
        }
        match best {
            Some((m, d)) if d < my_dist => Some(m),
            _ => None,
        }
    }

    /// The routing-table slot of `at` that `m` falls in, if any.
    fn rt_slot_of(&self, at: NodeIdx, m: NodeIdx) -> Option<(usize, usize)> {
        let at_id = self.ids[at.idx()];
        let m_id = self.ids[m.idx()];
        let row = at_id.prefix_len(m_id, self.cfg.b);
        (at != m && row < self.rows).then(|| (row, m_id.digit(row, self.cfg.b) as usize))
    }

    /// Learns that `m` exists (routing-table fill from observed traffic,
    /// as in Pastry).
    fn learn(&mut self, at: NodeIdx, m: NodeIdx) {
        if let Some((row, col)) = self.rt_slot_of(at, m) {
            let slot = self.nodes[at.idx()].rt_slot_mut(row, col);
            if slot.is_none() {
                *slot = Some(m);
            }
        }
    }

    /// Would [`Overlay::learn`] leave `at`'s routing table as it is?
    fn knows(&self, at: NodeIdx, m: NodeIdx) -> bool {
        self.rt_slot_of(at, m)
            .is_none_or(|(row, col)| self.nodes[at.idx()].rt_get(row, col).is_some())
    }

    /// Drops every reference `at` holds to `gone`.
    fn purge<A: Clone>(&mut self, eng: &mut OverlayEngine<A>, at: NodeIdx, gone: NodeIdx) {
        self.bump(eng, at);
        let st = &mut self.nodes[at.idx()];
        let removed = st.remove_from_leafset(gone);
        st.rt_purge(gone);
        if removed {
            sorted_remove(&mut self.listed_by[gone.idx()], at.0);
            self.update_standing_rate(eng, at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seaweed_sim::{Event, SimConfig, UniformTopology};
    use seaweed_types::Time;

    type Eng = OverlayEngine<u64>;

    /// Drives engine + overlay until quiescent (or horizon), collecting
    /// app-facing events.
    fn drive(eng: &mut Eng, ov: &mut Overlay, horizon: Time) -> Vec<OverlayEvent<u64>> {
        let mut out = Vec::new();
        while let Some((_, ev)) = eng.next_event_before(horizon) {
            out.extend(dispatch(eng, ov, ev));
        }
        out
    }

    /// Hands one engine event to the overlay.
    fn dispatch(eng: &mut Eng, ov: &mut Overlay, ev: Event<OverlayMsg<u64>>) -> OverlayEvents<u64> {
        match ev {
            Event::Message { from, to, payload } => {
                ov.on_message(eng, from, to, payload.into_owned())
            }
            Event::Timer { node, tag } if is_overlay_tag(tag) => ov.on_timer(eng, node, tag),
            Event::Timer { .. } => OverlayEvents::new(),
            Event::NodeUp { node } => ov.node_up(eng, node),
            Event::NodeDown { node } | Event::NodeCrash { node } => {
                ov.node_down(eng, node);
                OverlayEvents::new()
            }
            Event::PartitionStart { partition } => {
                let members = eng.partition_members(partition);
                ov.partition_started(eng, &members);
                OverlayEvents::new()
            }
            Event::PartitionEnd { partition } => {
                let members = eng.partition_members(partition);
                ov.partition_healed(eng, &members);
                OverlayEvents::new()
            }
        }
    }

    fn build(n: usize, seed: u64) -> (Eng, Overlay) {
        let eng: Eng = Engine::new(
            Box::new(UniformTopology::new(n, Duration::from_millis(5))),
            SimConfig::default(),
        );
        let ov = Overlay::new(
            Overlay::random_ids(n, seed),
            OverlayConfig {
                seed,
                ..Default::default()
            },
        );
        (eng, ov)
    }

    /// Brings all nodes up at staggered times and drains events.
    fn bootstrap_all(eng: &mut Eng, ov: &mut Overlay, n: usize) -> Vec<OverlayEvent<u64>> {
        for i in 0..n {
            eng.schedule_up(Time::from_micros(i as u64 * 1_000_000), NodeIdx(i as u32));
        }
        drive(eng, ov, Time::ZERO + Duration::from_hours(1))
    }

    #[test]
    fn all_nodes_join() {
        let n = 40;
        let (mut eng, mut ov) = build(n, 1);
        let events = bootstrap_all(&mut eng, &mut ov, n);
        let joined = events
            .iter()
            .filter(|e| matches!(e, OverlayEvent::Joined { .. }))
            .count();
        assert_eq!(joined, n);
        assert_eq!(ov.num_joined(), n);
    }

    #[test]
    fn leafsets_hold_true_neighbors() {
        let n = 30;
        let (mut eng, mut ov) = build(n, 2);
        bootstrap_all(&mut eng, &mut ov, n);
        // Sort nodes by id to find true ring neighbors.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| ov.ids()[i].0);
        for (pos, &i) in order.iter().enumerate() {
            let succ = NodeIdx(order[(pos + 1) % n] as u32);
            let pred = NodeIdx(order[(pos + n - 1) % n] as u32);
            let node = NodeIdx(i as u32);
            let members = ov.leafset_members(node);
            assert!(members.contains(&succ), "node {i} missing successor");
            assert!(members.contains(&pred), "node {i} missing predecessor");
        }
    }

    #[test]
    fn routing_reaches_the_root() {
        let n = 50;
        let (mut eng, mut ov) = build(n, 3);
        bootstrap_all(&mut eng, &mut ov, n);
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..50u64 {
            let key = Id::random(&mut rng);
            let from = NodeIdx((trial % n as u64) as u32);
            let mut evs = ov.route(&mut eng, from, key, trial, 100);
            let horizon = eng.now() + Duration::from_mins(5);
            evs.extend(drive(&mut eng, &mut ov, horizon));
            let delivered: Vec<_> = evs
                .iter()
                .filter_map(|e| match e {
                    OverlayEvent::Deliver {
                        node,
                        key: k,
                        payload,
                        ..
                    } if *k == key => Some((*node, *payload)),
                    _ => None,
                })
                .collect();
            assert_eq!(delivered.len(), 1, "trial {trial}");
            let (node, payload) = delivered[0];
            assert_eq!(payload, trial);
            assert_eq!(
                Some(node),
                ov.oracle_root(key),
                "trial {trial} landed off-root"
            );
        }
    }

    #[test]
    fn routing_hops_are_logarithmic() {
        let n = 200;
        let (mut eng, mut ov) = build(n, 4);
        bootstrap_all(&mut eng, &mut ov, n);
        let mut rng = StdRng::seed_from_u64(9);
        for t in 0..100u64 {
            let key = Id::random(&mut rng);
            let from = NodeIdx(rng.gen_range(0..n as u32));
            let evs = ov.route(&mut eng, from, key, t, 50);
            drop(evs);
            let horizon = eng.now() + Duration::from_mins(5);
            drive(&mut eng, &mut ov, horizon);
        }
        assert_eq!(ov.stats.delivered_messages, 100);
        let mean_hops = ov.stats.total_hops as f64 / ov.stats.delivered_messages as f64;
        // log_16(200) ~ 1.9; allow generous slack for sparse tables.
        assert!(mean_hops < 6.0, "mean hops {mean_hops}");
        assert!(ov.stats.max_hops < 30, "max hops {}", ov.stats.max_hops);
    }

    #[test]
    fn failure_detection_repairs_leafsets() {
        let n = 20;
        let (mut eng, mut ov) = build(n, 5);
        bootstrap_all(&mut eng, &mut ov, n);
        let victim = NodeIdx(7);
        let t_down = eng.now() + Duration::from_secs(10);
        eng.schedule_down(t_down, victim);
        let evs = drive(&mut eng, &mut ov, t_down + Duration::from_mins(10));
        let failures: Vec<_> = evs
            .iter()
            .filter_map(|e| match e {
                OverlayEvent::NeighborFailed { node, failed } if *failed == victim => Some(*node),
                _ => None,
            })
            .collect();
        assert!(!failures.is_empty(), "no neighbor detected the failure");
        // No surviving node still lists the victim.
        for i in 0..n {
            if i == victim.idx() {
                continue;
            }
            assert!(
                !ov.leafset_members(NodeIdx(i as u32)).contains(&victim),
                "node {i} still lists the victim"
            );
        }
        assert!(ov.stats.leafset_repairs > 0);
    }

    #[test]
    fn rejoin_after_failure_works() {
        let n = 15;
        let (mut eng, mut ov) = build(n, 6);
        bootstrap_all(&mut eng, &mut ov, n);
        let victim = NodeIdx(3);
        let t1 = eng.now() + Duration::from_secs(5);
        eng.schedule_down(t1, victim);
        eng.schedule_up(t1 + Duration::from_mins(30), victim);
        let evs = drive(&mut eng, &mut ov, t1 + Duration::from_hours(1));
        let rejoined = evs
            .iter()
            .any(|e| matches!(e, OverlayEvent::Joined { node } if *node == victim));
        assert!(rejoined);
        assert!(ov.is_joined(victim));
        assert_eq!(ov.num_joined(), n);
    }

    /// Timers are armed fire-and-forget and decide at the fire instant: a
    /// detection timer from an ended session of the watched node, and a
    /// join retry at a node that has joined, fire and do nothing.
    #[test]
    fn stale_detection_and_join_retry_timers_fire_as_no_ops() {
        let n = 20;
        let (mut eng, mut ov) = build(n, 5);
        bootstrap_all(&mut eng, &mut ov, n);
        let victim = NodeIdx(7);
        let failed_victim = |e: &OverlayEvent<u64>| matches!(e, OverlayEvent::NeighborFailed { failed, .. } if *failed == victim);
        // Down, back up before any detector fires, down again while the
        // first session's timers are all still pending. They fire in
        // [t0 + 40 s, t0 + 70 s), with the victim down; the second
        // session's fire from t1 + 40 s = t0 + 75 s.
        let t0 = eng.now() + Duration::from_secs(10);
        let t1 = t0 + Duration::from_secs(35);
        eng.schedule_down(t0, victim);
        eng.schedule_up(t0 + Duration::from_secs(5), victim);
        eng.schedule_down(t1, victim);
        let repairs = ov.stats.leafset_repairs;
        let mut stale = 0;
        while let Some((_, ev)) = eng.next_event_before(t1 + DETECT_DELAY) {
            if let Event::Timer { tag, .. } = ev {
                stale += u32::from(tag & TAG_KIND_MASK == TAG_FAIL && tag as u32 == victim.0);
            }
            assert!(!dispatch(&mut eng, &mut ov, ev)
                .into_iter()
                .any(|e| failed_victim(&e)));
        }
        assert!(stale > 0, "no first-session detection timer fired");
        assert_eq!(ov.stats.leafset_repairs, repairs);
        let evs = drive(&mut eng, &mut ov, t1 + DETECT_DELAY + HEARTBEAT_PERIOD);
        assert!(
            evs.iter().any(failed_victim),
            "the second session went undetected"
        );
        assert!(ov.stats.leafset_repairs > repairs);
        // Back for good: the join completes long before its retry fires.
        let t2 = eng.now();
        eng.schedule_up(t2, victim);
        let mut retries = 0;
        while let Some((_, ev)) = eng.next_event_before(t2 + HEARTBEAT_PERIOD * 3) {
            if !matches!(ev, Event::Timer { node, tag: TAG_JOIN_RETRY } if node == victim) {
                let _ = dispatch(&mut eng, &mut ov, ev);
                continue;
            }
            assert!(ov.is_joined(victim));
            let (stats, sent) = (format!("{:?}", ov.stats), eng.messages_sent);
            assert!(dispatch(&mut eng, &mut ov, ev).is_empty());
            assert_eq!(
                (format!("{:?}", ov.stats), eng.messages_sent),
                (stats, sent)
            );
            retries += 1;
        }
        assert_eq!(retries, 1);
    }

    #[test]
    fn routing_around_undetected_failures() {
        // Kill a node and immediately route a key it owned, before any
        // detection timer fires: the message must still reach the best
        // surviving node.
        let n = 30;
        let (mut eng, mut ov) = build(n, 8);
        bootstrap_all(&mut eng, &mut ov, n);
        let victim = NodeIdx(11);
        let key = ov.id_of(victim); // exactly the victim's id
        let t1 = eng.now() + Duration::from_secs(1);
        eng.schedule_down(t1, victim);
        // Drain just the NodeDown.
        let _ = drive(&mut eng, &mut ov, t1);
        let from = NodeIdx(0);
        let mut evs = ov.route(&mut eng, from, key, 99, 10);
        evs.extend(drive(&mut eng, &mut ov, t1 + Duration::from_secs(20)));
        let delivered: Vec<_> = evs
            .iter()
            .filter_map(|e| match e {
                OverlayEvent::Deliver { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        assert_eq!(delivered.len(), 1);
        assert_ne!(delivered[0], victim);
        assert_eq!(Some(delivered[0]), ov.oracle_root(key));
        assert!(ov.stats.probes > 0, "expected stale-entry probes");
    }

    #[test]
    fn replica_set_is_ring_closest() {
        let n = 25;
        let (mut eng, mut ov) = build(n, 10);
        bootstrap_all(&mut eng, &mut ov, n);
        let x = NodeIdx(5);
        let rs = ov.replica_set(x, 8);
        assert_eq!(rs.len(), 8);
        assert!(!rs.contains(&x));
        // The replica set is the converged leafset: the 4 nearest live
        // nodes on each side of x in id order.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&i| ov.ids()[i as usize].0);
        let pos = order.iter().position(|&i| i == x.0).unwrap();
        let mut expected: Vec<NodeIdx> = Vec::new();
        for d in 1..=4usize {
            expected.push(NodeIdx(order[(pos + d) % n]));
            expected.push(NodeIdx(order[(pos + n - d) % n]));
        }
        let mut rs_sorted: Vec<u32> = rs.iter().map(|m| m.0).collect();
        let mut exp_sorted: Vec<u32> = expected.iter().map(|m| m.0).collect();
        rs_sorted.sort_unstable();
        exp_sorted.sort_unstable();
        assert_eq!(rs_sorted, exp_sorted);
    }

    #[test]
    fn responsible_ranges_partition_namespace() {
        let n = 20;
        let (mut eng, mut ov) = build(n, 11);
        bootstrap_all(&mut eng, &mut ov, n);
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..200 {
            let probe = Id::random(&mut rng);
            let owners: Vec<_> = (0..n as u32)
                .map(NodeIdx)
                .filter(|&m| ov.responsible_range(m).contains(probe))
                .collect();
            assert_eq!(owners.len(), 1, "probe {probe:?} owned by {owners:?}");
            assert_eq!(Some(owners[0]), ov.oracle_root(probe));
        }
    }

    fn build_with_leafset(n: usize, seed: u64, leafset: usize) -> (Eng, Overlay) {
        let (eng, _) = build(n, seed);
        let ov = Overlay::new(
            Overlay::random_ids(n, seed),
            OverlayConfig {
                seed,
                leafset,
                ..Default::default()
            },
        );
        (eng, ov)
    }

    /// The pulls `puller`'s rotation performs up to `horizon`, by peer —
    /// sent as messages or elided on a synced pair, read off the rotation
    /// cursor, which walks the (unchanging) members in order — and how
    /// many of them were messages.
    fn pulls_from(
        eng: &mut Eng,
        ov: &mut Overlay,
        puller: NodeIdx,
        horizon: Time,
    ) -> (Vec<u32>, u32) {
        ov.settle_elided_pulls(eng.now());
        let (cursor, stats) = (ov.refresh_cursor(puller), ov.stats);
        let (mut sent, mut sent_by_puller) = (0u64, 0u32);
        while let Some((_, ev)) = eng.next_event_before(horizon) {
            match ev {
                Event::Message { from, to, payload } => {
                    let msg = payload.into_owned();
                    if matches!(msg, OverlayMsg::LeafsetPull) {
                        sent += 1;
                        sent_by_puller += u32::from(from == puller);
                    }
                    let _ = ov.on_message(eng, from, to, msg);
                }
                Event::Timer { node, tag } => {
                    let _ = ov.on_timer(eng, node, tag);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        ov.settle_elided_pulls(horizon);
        assert_eq!(
            ov.stats.leafset_refreshes - stats.leafset_refreshes,
            ov.stats.leafset_pulls_elided - stats.leafset_pulls_elided + sent,
            "every turn is a message or an elided pull"
        );
        let members = ov.leafset_members(puller);
        let mut pulls = vec![0u32; ov.ids().len()];
        for turn in cursor..ov.refresh_cursor(puller) {
            pulls[members[turn as usize % members.len()].idx()] += 1;
        }
        (pulls, sent_by_puller)
    }

    #[test]
    fn new_rejects_leafset_sizes_the_halves_cannot_hold() {
        for leafset in [0, 1, 3, 7, 2 * HALF_CAP + 1, 2 * HALF_CAP + 2] {
            let built = std::panic::catch_unwind(|| {
                Overlay::new(
                    Overlay::random_ids(4, 1),
                    OverlayConfig {
                        leafset,
                        ..Default::default()
                    },
                )
            });
            assert!(built.is_err(), "leafset {leafset} accepted");
        }
        for leafset in [2, 8, 2 * HALF_CAP] {
            let cfg = OverlayConfig {
                leafset,
                ..Default::default()
            };
            assert_eq!(Overlay::new(Vec::new(), cfg).config().leafset, leafset);
        }
    }

    #[test]
    fn leafset_of_two_is_successor_and_predecessor() {
        let n = 12;
        let (mut eng, mut ov) = build_with_leafset(n, 14, 2);
        bootstrap_all(&mut eng, &mut ov, n);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| ov.ids()[i].0);
        for (pos, &i) in order.iter().enumerate() {
            let succ = NodeIdx(order[(pos + 1) % n] as u32);
            let pred = NodeIdx(order[(pos + n - 1) % n] as u32);
            let (cw, ccw) = ov.leafset_halves(NodeIdx(i as u32));
            assert_eq!((cw, ccw), (&[succ][..], &[pred][..]), "node {i}");
        }
        assert_eq!(ov.replica_set(NodeIdx(0), 2).len(), 2);
    }

    #[test]
    fn singleton_ring_owns_everything_and_pulls_nobody() {
        let (mut eng, mut ov) = build(1, 15);
        let events = bootstrap_all(&mut eng, &mut ov, 1);
        assert!(matches!(
            events[..],
            [OverlayEvent::Joined { node: NodeIdx(0) }]
        ));
        let me = NodeIdx(0);
        assert!(ov.leafset_members(me).is_empty());
        assert!(ov.replica_set(me, 8).is_empty());
        assert!(ov.responsible_range(me).is_full());
        // Nobody to pull: its one refresh timer fired, took no turn and
        // was not re-armed.
        ov.settle_elided_pulls(eng.now());
        assert_eq!(ov.stats.leafset_refreshes, 0);
        assert_eq!(ov.refresh_cursor(me), 0);
        assert_eq!(eng.next_pending_at(), None);
        let evs = ov.route(&mut eng, me, Id(7), 1, 10);
        assert!(matches!(
            evs.iter().next(),
            Some(OverlayEvent::Deliver {
                node: NodeIdx(0),
                hops: 0,
                ..
            })
        ));
    }

    #[test]
    fn two_node_ring_lists_the_peer_in_both_halves_once() {
        let (mut eng, mut ov) = build(2, 16);
        bootstrap_all(&mut eng, &mut ov, 2);
        for (me, peer) in [(NodeIdx(0), NodeIdx(1)), (NodeIdx(1), NodeIdx(0))] {
            assert_eq!(ov.leafset_halves(me), (&[peer][..], &[peer][..]));
            assert_eq!(ov.leafset_members(me), [peer]);
            assert_eq!(*ov.replica_set(me, 8), [peer]);
            assert_eq!(ov.listed_by(me), [peer.0]);
        }
        // Every turn pulls the one peer — as a standing rate by now: the
        // first exchange each way found nothing to merge.
        assert_eq!(ov.synced_peers(NodeIdx(0)), [NodeIdx(1)]);
        let horizon = eng.now() + Duration::from_hours(1);
        let (pulls, sent) = pulls_from(&mut eng, &mut ov, NodeIdx(0), horizon);
        assert_eq!(pulls[0], 0);
        assert!(pulls[1] >= 40, "{pulls:?}");
        assert_eq!(sent, 0);
    }

    #[test]
    fn ring_within_half_a_leafset_dedups_and_rotates_evenly() {
        // N - 1 = 3 <= l/2 = 4: every other node sits in *both* halves.
        let n = 4;
        let (mut eng, mut ov) = build(n, 17);
        bootstrap_all(&mut eng, &mut ov, n);
        for i in 0..n as u32 {
            let me = NodeIdx(i);
            let (cw, ccw) = ov.leafset_halves(me);
            assert_eq!((cw.len(), ccw.len()), (3, 3));
            let rev: Vec<NodeIdx> = ccw.iter().rev().copied().collect();
            assert_eq!(cw, &rev[..], "ccw walks the same three nodes backwards");
            // Dedup keeps the clockwise order, one entry per node.
            assert_eq!(ov.leafset_members(me), cw);
            assert_eq!(ov.replica_set(me, 8).len(), 3);
            assert_eq!(ov.listed_by(me).len(), 3);
        }
        // The refresh rotation walks the three *distinct* members, not
        // the six half entries: over an hour each peer is pulled equally
        // often, give or take the one in progress.
        let horizon = eng.now() + Duration::from_hours(1);
        let (pulls, sent) = pulls_from(&mut eng, &mut ov, NodeIdx(0), horizon);
        assert_eq!(pulls[0], 0);
        let (lo, hi) = (
            pulls[1..].iter().min().unwrap(),
            pulls[1..].iter().max().unwrap(),
        );
        assert!(*lo >= 10 && hi - lo <= 1, "{pulls:?}");
        assert_eq!(sent, 0, "a converged ring sends none of them");
        // Un-synced, the same rotation goes out as messages: node 3
        // restarts, and node 0 pulls all three members once each before
        // anything is elided again.
        eng.schedule_down(horizon, NodeIdx(3));
        eng.schedule_up(horizon + Duration::from_secs(5), NodeIdx(3));
        let rejoined = horizon + Duration::from_secs(10);
        let _ = drive(&mut eng, &mut ov, rejoined);
        assert!(ov.synced_peers(NodeIdx(0)).is_empty());
        let (pulls, sent) = pulls_from(
            &mut eng,
            &mut ov,
            NodeIdx(0),
            rejoined + Duration::from_mins(4),
        );
        assert_eq!((&pulls[1..], sent), (&[1, 1, 1][..], 3));
        assert_eq!(ov.synced_peers(NodeIdx(0)).len(), 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exceeds the leafset size")]
    fn replica_set_larger_than_the_leafset_is_a_caller_bug() {
        let (mut eng, mut ov) = build(12, 18);
        bootstrap_all(&mut eng, &mut ov, 12);
        let _ = ov.replica_set(NodeIdx(0), 9);
    }

    #[test]
    fn app_messages_pass_through() {
        let (mut eng, mut ov) = build(2, 12);
        bootstrap_all(&mut eng, &mut ov, 2);
        ov.send_app(
            &mut eng,
            NodeIdx(0),
            NodeIdx(1),
            42,
            100,
            TrafficClass::Query,
        );
        let horizon = eng.now() + Duration::from_secs(5);
        let evs = drive(&mut eng, &mut ov, horizon);
        assert!(evs.iter().any(|e| matches!(
            e,
            OverlayEvent::AppMessage {
                node: NodeIdx(1),
                from: NodeIdx(0),
                payload: 42
            }
        )));
    }

    /// A converged all-up ring is pure standing rate: per node, a
    /// heartbeat per member per 30 s each way, one pull out and one
    /// 8-member push back per 67.5 s mean refresh period, and the mirror
    /// image of its eight watchers' pulls of it — with no overlay event
    /// left to process.
    #[test]
    fn a_converged_rings_anti_entropy_is_metered_without_events() {
        let n = 64;
        let (mut eng, mut ov) = build(n, 21);
        bootstrap_all(&mut eng, &mut ov, n);
        let converged = Time::ZERO + Duration::from_hours(1);
        for i in 0..n as u32 {
            assert_eq!(ov.synced_peers(NodeIdx(i)).len(), 8, "node {i}");
        }
        assert_eq!(eng.next_pending_at(), None, "nothing left to schedule");
        let end = converged + Duration::from_hours(6);
        assert!(drive(&mut eng, &mut ov, end).is_empty());
        let report = eng.finish();
        let expect = 8.0 * f64::from(wire::HEARTBEAT) / 30.0
            + f64::from(wire::leafset_msg(1) + wire::leafset_msg(8)) / 67.5;
        for (dir, hours) in [("tx", &report.tx_hours), ("rx", &report.rx_hours)] {
            for (h, agg) in hours.iter().enumerate().skip(1) {
                let bps = agg.per_online_bps(TrafficClass::Overlay);
                assert!(
                    (bps / expect - 1.0).abs() < 0.005,
                    "{dir} hour {h}: {bps} B/s per node, expected {expect}"
                );
            }
        }
    }

    #[test]
    fn heartbeat_traffic_is_metered() {
        let n = 10;
        let (mut eng, mut ov) = build(n, 13);
        bootstrap_all(&mut eng, &mut ov, n);
        // Run 4 quiet hours; overlay standing traffic should accumulate.
        let end = Time::ZERO + Duration::from_hours(5);
        let _ = drive(&mut eng, &mut ov, end);
        let report = eng.finish();
        let overlay_bps = report.mean_tx_per_online_bps(TrafficClass::Overlay);
        // 8 members (n-1=9 capped at l=8) * 56 B / 30 s ≈ 15 B/s; joins
        // add a little. Assert the right ballpark.
        assert!(
            (5.0..40.0).contains(&overlay_bps),
            "overlay {overlay_bps} B/s"
        );
    }
}
