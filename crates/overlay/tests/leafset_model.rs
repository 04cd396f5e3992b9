//! Model equivalence for the leafset merge and for the pulls the overlay
//! does not send, plus the reverse-index invariant and the push-buffer
//! recycling rules.
//!
//! The overlay merges a heard-of node into fixed-capacity inline halves
//! and touches the reverse index only when a half changed. The model
//! here is the logic it replaced — `Vec` halves, decide-after-collecting
//! — kept only in this file: every `Announce` and `LeafsetPush` the
//! engine delivers is first applied to the model on a snapshot of the
//! receiver's halves, then to the real overlay, and the two must agree
//! on the halves and on the `NeighborJoined` events, in order. Rings of
//! 1–40 nodes with l ∈ {2, 4, 8, 16} cover the small-ring regime where
//! one node sits in *both* halves.
//!
//! The same model is the un-elided anti-entropy protocol. The overlay
//! sends no pull between a *synced* pair (n → p) and charges the exchange
//! as a standing rate; the oracle ([`check_elision`]) holds it to that
//! after every delivered event: pulling p's current members into a
//! snapshot of n through the model changes no half, surfaces no
//! `NeighborJoined` and fills no routing slot; every change to an input
//! of that verdict advanced the owner's leafset stamp; a pair stays
//! synced only while both stamps stand still; and the rate the engine
//! holds for each node is the closed form over its members and synced
//! pairs. Liveness is [`a_converged_ring_schedules_nothing`].

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seaweed_overlay::wire;
use seaweed_overlay::{
    is_overlay_tag, Overlay, OverlayConfig, OverlayEvent, OverlayMsg, HEARTBEAT_PERIOD,
    LEAFSET_REFRESH, SPARE_PUSH_MAX,
};
use seaweed_sim::{
    Engine, Event, FaultPlan, NodeIdx, PartitionSpec, SimConfig, TrafficClass, UniformTopology,
};
use seaweed_types::{Duration, Id, Time};

type Eng = Engine<OverlayMsg<u64>>;

// ------------------------------------------------------------ the model

/// The pre-inline `leafset_insert`, verbatim but for the reverse-index
/// bookkeeping (checked separately, as an invariant): insert `x` into
/// `n`'s halves if it is among the `half` nearest on either side.
fn model_insert(
    ids: &[Id],
    half: usize,
    n: NodeIdx,
    x: NodeIdx,
    cw: &mut Vec<NodeIdx>,
    ccw: &mut Vec<NodeIdx>,
) -> bool {
    if n == x {
        return false;
    }
    let id = ids[n.idx()];
    let xid = ids[x.idx()];
    let mut changed = false;
    if !cw.contains(&x) {
        let pos = cw
            .iter()
            .position(|&m| id.cw_dist(xid) < id.cw_dist(ids[m.idx()]))
            .unwrap_or(cw.len());
        if pos < half {
            cw.insert(pos, x);
            cw.truncate(half);
            changed = true;
        }
    }
    if !ccw.contains(&x) {
        let pos = ccw
            .iter()
            .position(|&m| id.ccw_dist(xid) < id.ccw_dist(ids[m.idx()]))
            .unwrap_or(ccw.len());
        if pos < half {
            ccw.insert(pos, x);
            ccw.truncate(half);
            changed = true;
        }
    }
    changed
}

/// The model's verdict on one merge.
struct Merged {
    before: (Vec<NodeIdx>, Vec<NodeIdx>),
    after: (Vec<NodeIdx>, Vec<NodeIdx>),
    /// `(node, joined)` of the `NeighborJoined` events, in order.
    joined: Vec<(NodeIdx, NodeIdx)>,
}

/// What the pre-inline `Announce` / `LeafsetPush` arms did to `to`'s
/// leafset; `None` for any other message.
fn model_merge(
    eng: &Eng,
    ov: &Overlay,
    from: NodeIdx,
    to: NodeIdx,
    msg: &OverlayMsg<u64>,
) -> Option<Merged> {
    let heard: Vec<NodeIdx> = match msg {
        OverlayMsg::Announce if eng.is_up(from) => vec![from],
        OverlayMsg::Announce => vec![],
        OverlayMsg::LeafsetPush { members } => members
            .iter()
            .copied()
            .filter(|&m| eng.is_up(m) && ov.is_joined(m))
            .collect(),
        _ => return None,
    };
    let (cw, ccw) = ov.leafset_halves(to);
    let before = (cw.to_vec(), ccw.to_vec());
    let (mut cw, mut ccw) = before.clone();
    let mut joined = Vec::new();
    if ov.is_joined(to) {
        let half = ov.config().leafset / 2;
        for m in heard {
            if model_insert(ov.ids(), half, to, m, &mut cw, &mut ccw) {
                joined.push((to, m));
            }
        }
    }
    Some(Merged {
        before,
        after: (cw, ccw),
        joined,
    })
}

// -------------------------------------------------------- the invariant

/// `m ∈ leafset(n) ⇔ n ∈ listed_by[m]`, each reverse list strictly
/// ascending, and each half duplicate-free and within l/2.
fn check_reverse_index(ov: &Overlay, n_nodes: usize) -> Result<(), String> {
    let half = ov.config().leafset / 2;
    for i in 0..n_nodes as u32 {
        let n = NodeIdx(i);
        let (cw, ccw) = ov.leafset_halves(n);
        for h in [cw, ccw] {
            if h.len() > half || h.contains(&n) {
                return Err(format!("node {i}: malformed half {h:?}"));
            }
            if (1..h.len()).any(|k| h[..k].contains(&h[k])) {
                return Err(format!("node {i}: duplicate within a half {h:?}"));
            }
            for m in h {
                if !ov.listed_by(*m).contains(&i) {
                    return Err(format!("{m:?} in leafset({i}) but {i} not in listed_by"));
                }
            }
        }
        let watchers = ov.listed_by(n);
        if !watchers.windows(2).all(|w| w[0] < w[1]) {
            return Err(format!(
                "listed_by[{i}] not strictly ascending: {watchers:?}"
            ));
        }
        for &w in watchers {
            let (cw, ccw) = ov.leafset_halves(NodeIdx(w));
            if !cw.contains(&n) && !ccw.contains(&n) {
                return Err(format!("{w} in listed_by[{i}] but {i} not in leafset({w})"));
            }
        }
    }
    Ok(())
}

// ----------------------------------------------------------- the oracle

/// The routing-table slot of `at` that `m` falls in (the overlay's
/// `learn` fills it if empty).
fn slot_of(ov: &Overlay, at: NodeIdx, m: NodeIdx) -> Option<(usize, usize)> {
    let b = ov.config().b;
    let (at_id, m_id) = (ov.id_of(at), ov.id_of(m));
    let row = at_id.prefix_len(m_id, b);
    (at != m && row < Id::num_digits(b)).then(|| (row, m_id.digit(row, b) as usize))
}

/// Everything about one node that a pull of it, or by it, depends on.
#[derive(Clone, PartialEq, Debug)]
struct PullInputs {
    joined: bool,
    halves: (Vec<NodeIdx>, Vec<NodeIdx>),
    /// Its members as a receiver filters them: live and joined, or not.
    answer: Vec<(NodeIdx, bool)>,
    /// Its routing slots that some other node falls in.
    slots: Vec<Option<NodeIdx>>,
}

/// One node as the oracle sees it between two events.
#[derive(Clone, Debug)]
struct NodeView {
    stamp: u32,
    inputs: PullInputs,
    synced: Vec<NodeIdx>,
    asleep: bool,
}

/// Per node, the distinct slots the other nodes fall in (ids never
/// change): the only ones a schedule can fill or empty.
type SlotMap = Vec<Vec<(usize, usize)>>;

fn slot_map(ov: &Overlay, n_nodes: usize) -> SlotMap {
    let nodes = || (0..n_nodes as u32).map(NodeIdx);
    nodes()
        .map(|at| {
            let mut slots: Vec<_> = nodes().filter_map(|m| slot_of(ov, at, m)).collect();
            slots.sort_unstable();
            slots.dedup();
            slots
        })
        .collect()
}

fn view(eng: &Eng, ov: &Overlay, slots: &SlotMap) -> Vec<NodeView> {
    (0..slots.len() as u32)
        .map(|i| {
            let n = NodeIdx(i);
            let (cw, ccw) = ov.leafset_halves(n);
            let answer = ov.leafset_members(n).into_iter();
            let slot = |&(r, c): &(usize, usize)| ov.routing_slot(n, r, c);
            NodeView {
                stamp: ov.leafset_stamp(n),
                inputs: PullInputs {
                    joined: ov.is_joined(n),
                    halves: (cw.to_vec(), ccw.to_vec()),
                    answer: answer
                        .map(|m| (m, eng.is_up(m) && ov.is_joined(m)))
                        .collect(),
                    slots: slots[n.idx()].iter().map(slot).collect(),
                },
                synced: ov.synced_peers(n),
                asleep: ov.is_asleep(n),
            }
        })
        .collect()
}

/// The standing Overlay-class `(tx, rx)` of `n` in closed form: a
/// heartbeat per member per heartbeat period each way; while `n` sleeps,
/// a pull out and the pulled member's members back once per mean refresh
/// period; per sleeping `q` that lists `n`, the mirror image once per
/// `|members(q)|` periods.
fn closed_form_rate(
    eng: &Eng,
    views: &[NodeView],
    sleepers: &[Vec<usize>],
    n: NodeIdx,
) -> (f64, f64) {
    let members = |v: &NodeView| v.inputs.answer.len() as f64;
    let me = &views[n.idx()];
    if !eng.is_up(n) || !me.inputs.joined {
        return (0.0, 0.0);
    }
    let period = LEAFSET_REFRESH.as_secs_f64() * 1.125;
    let hb = members(me) * f64::from(wire::HEARTBEAT) / HEARTBEAT_PERIOD.as_secs_f64();
    let (mut tx, mut rx) = (hb, hb);
    if me.asleep {
        for (p, _) in &me.inputs.answer {
            let per_s = 1.0 / (members(me) * period);
            tx += f64::from(wire::leafset_msg(1)) * per_s;
            rx += f64::from(wire::leafset_msg(views[p.idx()].inputs.answer.len())) * per_s;
        }
    }
    for &q in &sleepers[n.idx()] {
        let per_s = 1.0 / (members(&views[q]) * period);
        tx += f64::from(wire::leafset_msg(me.inputs.answer.len())) * per_s;
        rx += f64::from(wire::leafset_msg(1)) * per_s;
    }
    (tx, rx)
}

/// What just happened, as far as the oracle's rules care.
enum Delivered {
    /// A `LeafsetPush` from `.0` reached `.1`: the one event that may
    /// sync that pair.
    Push(NodeIdx, NodeIdx),
    /// A partition opened around these members.
    Cut(Vec<NodeIdx>),
    Other,
}

/// The elision oracle, run after every delivered event with the views
/// before and after it.
fn check_elision(
    eng: &Eng,
    ov: &Overlay,
    before: &[NodeView],
    after: &[NodeView],
    what: &Delivered,
) -> Result<(), String> {
    // `sleepers[p]`: the sleeping nodes that list p.
    let mut sleepers = vec![Vec::new(); after.len()];
    for (q, v) in after.iter().enumerate().filter(|(_, v)| v.asleep) {
        for (p, _) in &v.inputs.answer {
            sleepers[p.idx()].push(q);
        }
    }
    // A pair's verdict is a function of its two ends' inputs (a cut adds
    // reachability): it is re-derived whenever either moved.
    let moved = |x: NodeIdx| {
        before[x.idx()].inputs != after[x.idx()].inputs || matches!(what, Delivered::Cut(_))
    };
    for (i, (was, is)) in before.iter().zip(after).enumerate() {
        let n = NodeIdx(i as u32);
        let bumped = was.stamp != is.stamp;
        // 1. No input of a pull changes behind the stamp's back. (A slot
        // that fills makes a pull learn less, never more.)
        let emptied = was.inputs.slots.iter().zip(&is.inputs.slots);
        let emptied = emptied.clone().any(|(w, i)| w.is_some() && w != i);
        let cut = match what {
            Delivered::Cut(members) if eng.is_up(n) => {
                let inside = |x: &NodeIdx| members.contains(x);
                was.inputs
                    .answer
                    .iter()
                    .any(|(m, _)| inside(m) != inside(&n))
            }
            _ => false,
        };
        let changed = was.inputs.joined != is.inputs.joined
            || was.inputs.halves != is.inputs.halves
            || was.inputs.answer != is.inputs.answer
            || emptied
            || cut;
        if changed && !bumped {
            return Err(format!(
                "{n:?} changed without a stamp bump:\n  was {:?}\n  is  {:?}",
                was.inputs, is.inputs
            ));
        }
        for p in &is.synced {
            // 3. A pair outlives a bump of either end only by a fresh
            // exchange.
            let p_bumped = before[p.idx()].stamp != after[p.idx()].stamp;
            let resynced = matches!(what, Delivered::Push(from, to) if (from, to) == (p, &n));
            if was.synced.contains(p) && (bumped || p_bumped) && !resynced {
                return Err(format!("{n:?} -> {p:?} still synced across a stamp bump"));
            }
            if !was.synced.contains(p) && !resynced {
                return Err(format!("{n:?} -> {p:?} synced without an exchange"));
            }
            if was.synced.contains(p) && !moved(n) && !moved(*p) {
                continue;
            }
            // 2. State equivalence: the pull the overlay will not send
            // would change nothing.
            let (puller_ok, pulled_ok) = (
                is.inputs.joined && eng.is_up(n),
                ov.is_joined(*p) && eng.is_up(*p) && eng.reachable(n, *p),
            );
            if !(puller_ok && pulled_ok) {
                return Err(format!("{n:?} -> {p:?} synced but cannot be exchanged"));
            }
            let push = OverlayMsg::LeafsetPush {
                members: ov.leafset_members(*p),
            };
            let model = model_merge(eng, ov, *p, n, &push).expect("a push merges");
            if model.before != model.after || !model.joined.is_empty() {
                return Err(format!(
                    "{n:?} -> {p:?} synced, but the pull would merge {:?}: {:?} into {:?}",
                    model.joined, model.after, model.before
                ));
            }
            for (m, _) in &after[p.idx()].inputs.answer {
                let learns =
                    slot_of(ov, n, *m).is_some_and(|(r, c)| ov.routing_slot(n, r, c).is_none());
                if learns {
                    return Err(format!(
                        "{n:?} -> {p:?} synced, but the pull would learn {m:?}"
                    ));
                }
            }
        }
        // 4. Only a node whose pairs are all synced sleeps, and the engine
        // holds exactly the rate the sleepers imply.
        if is.asleep && is.synced.len() != is.inputs.answer.len() {
            return Err(format!("{n:?} sleeps on an un-synced pair"));
        }
        let (tx, rx) = closed_form_rate(eng, after, &sleepers, n);
        let held = eng.standing(n, TrafficClass::Overlay);
        let close = |held: f32, want: f64| (f64::from(held) - want).abs() <= 1e-5 * want.max(1.0);
        if !close(held.0, tx) || !close(held.1, rx) {
            return Err(format!(
                "{n:?} holds a standing rate of {held:?}, the sleepers imply ({tx}, {rx})"
            ));
        }
    }
    Ok(())
}

// ------------------------------------------------------------ the drive

/// What a run exercised; the fixed-seed test below asserts the schedule
/// generator reaches the cases the model exists for.
#[derive(Debug, Default)]
struct Coverage {
    announce_changes: u64,
    push_changes: u64,
    /// Merges after which one node sat in both halves.
    both_halves: u64,
    /// Merges that pushed a member off the far end of a half.
    evictions: u64,
    pushes_sent: u64,
    pushes_delivered: u64,
    max_spare: usize,
    /// Events after which some pair was newly synced / newly un-synced.
    syncs: u64,
    unsyncs: u64,
    /// Events that emptied a routing slot without touching the halves.
    slot_only_purges: u64,
}

/// Runs engine + overlay to `horizon`, checking every merge against the
/// model and the reverse-index invariant after every event.
fn drive_checked(
    eng: &mut Eng,
    ov: &mut Overlay,
    n_nodes: usize,
    horizon: Time,
    cov: &mut Coverage,
) -> Result<(), String> {
    // Member lists each Pull handler put on the wire, per (sender,
    // receiver) of the push: every delivered copy must be one of them.
    let mut sent: BTreeMap<(u32, u32), Vec<Vec<NodeIdx>>> = BTreeMap::new();
    let slots = slot_map(ov, n_nodes);
    let mut before = view(eng, ov, &slots);
    while let Some((_, ev)) = eng.next_event_before(horizon) {
        let mut what = Delivered::Other;
        match ev {
            Event::Message { from, to, payload } => {
                let msg = payload.into_owned();
                if matches!(msg, OverlayMsg::LeafsetPush { .. }) {
                    what = Delivered::Push(from, to);
                }
                let expected = model_merge(eng, ov, from, to, &msg);
                let is_pull = matches!(msg, OverlayMsg::LeafsetPull);
                if let OverlayMsg::LeafsetPush { members } = &msg {
                    let lists = sent.get(&(from.0, to.0)).map_or(&[][..], Vec::as_slice);
                    if !lists.contains(members) {
                        return Err(format!(
                            "push {from:?}->{to:?} delivered {members:?}, never sent (sent: {lists:?})"
                        ));
                    }
                    cov.pushes_delivered += 1;
                }
                let is_push = matches!(msg, OverlayMsg::LeafsetPush { .. });
                let events = ov.on_message(eng, from, to, msg);
                if is_pull {
                    // The push just sent carries the handler's dedup'd view.
                    let lists = sent.entry((to.0, from.0)).or_default();
                    lists.push(ov.leafset_members(to));
                    cov.pushes_sent += 1;
                }
                if let Some(model) = expected {
                    let got: Vec<(NodeIdx, NodeIdx)> = events
                        .iter()
                        .map(|e| match e {
                            OverlayEvent::NeighborJoined { node, joined } => (*node, *joined),
                            other => panic!("merge surfaced {other:?}"),
                        })
                        .collect();
                    let (cw, ccw) = &model.after;
                    let (real_cw, real_ccw) = ov.leafset_halves(to);
                    if real_cw != cw || real_ccw != ccw || got != model.joined {
                        return Err(format!(
                            "merge at {to:?} diverged from the model:\n  model {cw:?} / {ccw:?} {:?}\n  real  {real_cw:?} / {real_ccw:?} {got:?}",
                            model.joined
                        ));
                    }
                    if !model.joined.is_empty() {
                        if is_push {
                            cov.push_changes += 1;
                        } else {
                            cov.announce_changes += 1;
                        }
                        if cw.iter().any(|m| ccw.contains(m)) {
                            cov.both_halves += 1;
                        }
                        let (old_cw, old_ccw) = &model.before;
                        if old_cw.iter().any(|m| !cw.contains(m))
                            || old_ccw.iter().any(|m| !ccw.contains(m))
                        {
                            cov.evictions += 1;
                        }
                    }
                }
            }
            Event::Timer { node, tag } if is_overlay_tag(tag) => {
                let _ = ov.on_timer(eng, node, tag);
            }
            Event::Timer { .. } => {}
            Event::NodeUp { node } => {
                let _ = ov.node_up(eng, node);
            }
            Event::NodeDown { node } | Event::NodeCrash { node } => ov.node_down(eng, node),
            Event::PartitionStart { partition } => {
                let members = eng.partition_members(partition);
                ov.partition_started(eng, &members);
                what = Delivered::Cut(members);
            }
            Event::PartitionEnd { partition } => {
                let members = eng.partition_members(partition);
                ov.partition_healed(eng, &members);
            }
        }
        check_reverse_index(ov, n_nodes)?;
        let after = view(eng, ov, &slots);
        check_elision(eng, ov, &before, &after, &what)
            .map_err(|e| format!("at {:?}: {e}", eng.now()))?;
        for (was, is) in before.iter().zip(&after) {
            cov.syncs += u64::from(is.synced.iter().any(|p| !was.synced.contains(p)));
            cov.unsyncs += u64::from(was.synced.iter().any(|p| !is.synced.contains(p)));
            cov.slot_only_purges += u64::from(
                was.inputs.halves == is.inputs.halves
                    && was
                        .inputs
                        .slots
                        .iter()
                        .zip(&is.inputs.slots)
                        .any(|(w, i)| w.is_some() && i.is_none()),
            );
        }
        before = after;
        let spare = ov.spare_push_buffers();
        cov.max_spare = cov.max_spare.max(spare);
        if spare > SPARE_PUSH_MAX {
            return Err(format!(
                "spare list holds {spare} buffers, bound is {SPARE_PUSH_MAX}"
            ));
        }
    }
    Ok(())
}

/// One random schedule: staggered (sometimes simultaneous) joins, churn,
/// one partition window, message loss, duplication and reordering.
fn run_schedule(n: usize, leafset: usize, seed: u64, dup_rate: f64) -> Result<Coverage, String> {
    let (mut eng, mut ov, end) = schedule(n, leafset, seed, dup_rate);
    let mut cov = Coverage::default();
    drive_checked(&mut eng, &mut ov, n, end, &mut cov)?;
    Ok(cov)
}

/// Builds the world of [`run_schedule`] with its faults queued; the last
/// of them is over ten minutes before the returned time.
fn schedule(n: usize, leafset: usize, seed: u64, dup_rate: f64) -> (Eng, Overlay, Time) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1eaf_5e70);
    let cut: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(0.4)).collect();
    let faults = FaultPlan {
        partitions: vec![PartitionSpec {
            members: cut,
            from: Time::from_secs(900),
            until: Time::from_secs(1_200),
        }],
        dup_rate,
        reorder_window: Duration::from_millis(rng.gen_range(0..40)),
        ..FaultPlan::default()
    };
    let mut eng: Eng = Engine::new(
        Box::new(UniformTopology::new(n, Duration::from_millis(4))),
        SimConfig {
            seed,
            // Lost Announces leave the asymmetric views anti-entropy
            // pushes exist to repair.
            loss_rate: 0.1,
            faults: Some(faults),
            ..SimConfig::default()
        },
    );
    let ov = Overlay::new(
        Overlay::random_ids(n, seed),
        OverlayConfig {
            seed,
            leafset,
            ..OverlayConfig::default()
        },
    );
    let mut t = 1u64;
    for i in 0..n {
        eng.schedule_up(Time::from_micros(t), NodeIdx(i as u32));
        t += rng.gen_range(0..3) * 500_000;
    }
    let mut up = vec![true; n];
    let mut at = Time::from_secs(120);
    for _ in 0..30 {
        at += Duration::from_secs(rng.gen_range(5..90));
        let node = rng.gen_range(0..n);
        if up[node] {
            eng.schedule_down(at, NodeIdx(node as u32));
        } else {
            eng.schedule_up(at, NodeIdx(node as u32));
        }
        up[node] = !up[node];
    }
    let end = at.max(Time::from_secs(1_200)) + Duration::from_mins(10);
    (eng, ov, end)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn merge_matches_the_pre_inline_model(
        n in 1usize..41,
        leafset in prop::sample::select(vec![2usize, 4, 8, 8, 16]),
        seed in 0u64..1_000_000,
        dup_rate in prop::sample::select(vec![0.0f64, 0.3, 1.0]),
    ) {
        if let Err(e) = run_schedule(n, leafset, seed, dup_rate) {
            return Err(TestCaseError::fail(e));
        }
    }
}

/// The generator reaches what the model is for: merges that change a
/// leafset from both message kinds, members evicted off a full half, and
/// small rings where one node sits in both halves.
#[test]
fn schedules_cover_the_interesting_merges() {
    let mut total = Coverage::default();
    for (n, leafset, seed) in [(3, 8, 1), (5, 8, 2), (12, 4, 3), (40, 8, 4), (25, 2, 5)] {
        let cov = run_schedule(n, leafset, seed, 0.3).expect("model agrees");
        total.announce_changes += cov.announce_changes;
        total.push_changes += cov.push_changes;
        total.both_halves += cov.both_halves;
        total.evictions += cov.evictions;
        total.syncs += cov.syncs;
        total.unsyncs += cov.unsyncs;
        total.slot_only_purges += cov.slot_only_purges;
    }
    assert!(total.announce_changes > 0, "{total:?}");
    assert!(total.push_changes > 0, "{total:?}");
    assert!(total.both_halves > 0, "{total:?}");
    assert!(total.evictions > 0, "{total:?}");
    // The elision oracle had pairs to watch come and go, and saw the one
    // bump site that leaves the halves alone.
    assert!(total.syncs > 0 && total.unsyncs > 0, "{total:?}");
    assert!(total.slot_only_purges > 0, "{total:?}");
}

/// Liveness: once the faults are over and every node has gone round its
/// rotation a bounded number of times (lost pulls and pushes are retried
/// a rotation later), every joined node's halves are the ring's ground
/// truth, the reverse index is exact, every pair is synced — and the
/// engine holds nothing: no refresh timer, no message, no event at all.
#[test]
fn a_converged_ring_schedules_nothing() {
    for (n, leafset, seed, dup_rate) in [
        (1, 8, 21, 0.0),
        (2, 8, 22, 0.3),
        (5, 8, 23, 0.0),
        (12, 4, 24, 0.3),
        (25, 2, 25, 0.0),
        (40, 8, 26, 0.3),
        (40, 16, 27, 1.0),
    ] {
        let (mut eng, mut ov, end) = schedule(n, leafset, seed, dup_rate);
        let mut cov = Coverage::default();
        let rotation = Duration::from_secs(75) * leafset as u64;
        drive_checked(&mut eng, &mut ov, n, end + rotation * 12, &mut cov)
            .unwrap_or_else(|e| panic!("n={n} l={leafset} seed={seed}: {e}"));
        assert!(cov.syncs > 0 || n == 1);

        let mut ring: Vec<NodeIdx> = (0..n as u32)
            .map(NodeIdx)
            .filter(|&m| eng.is_up(m))
            .collect();
        ring.sort_by_key(|m| ov.id_of(*m).0);
        let near = (leafset / 2).min(ring.len().saturating_sub(1));
        for (pos, &me) in ring.iter().enumerate() {
            let at = |d: usize| ring[(pos + d) % ring.len()];
            let cw: Vec<NodeIdx> = (1..=near).map(at).collect();
            let ccw: Vec<NodeIdx> = (1..=near).map(|d| at(ring.len() - d)).collect();
            assert!(ov.is_joined(me), "n={n} seed={seed}: {me:?} never joined");
            assert_eq!(
                ov.leafset_halves(me),
                (&cw[..], &ccw[..]),
                "n={n} l={leafset} seed={seed}: halves of {me:?}"
            );
            assert_eq!(
                ov.synced_peers(me),
                ov.leafset_members(me),
                "n={n} l={leafset} seed={seed}: pairs of {me:?}"
            );
        }
        check_reverse_index(&ov, n).unwrap();
        assert_eq!(
            eng.next_pending_at(),
            None,
            "n={n} l={leafset} seed={seed}: a converged ring still schedules"
        );
    }
}

/// Duplication rate 1.0: the engine delivers every message twice from one
/// shared allocation. Each copy of a `LeafsetPush` must still read the
/// member list its Pull handler sent — the first copy's buffer going back
/// to the spare list (and out again with the next push) must never be the
/// allocation the second copy reads — and although every exchange now
/// returns two buffers for the one it took, the spare list stays within
/// its bound through the partition-heal burst.
#[test]
fn duplicated_pushes_never_alias_a_recycled_buffer() {
    let cov = run_schedule(40, 8, 9, 1.0).expect("every delivered push was one that was sent");
    assert!(
        cov.pushes_delivered > cov.pushes_sent,
        "duplication must have delivered extra copies: {cov:?}"
    );
    assert_eq!(
        cov.max_spare, SPARE_PUSH_MAX,
        "two buffers return per exchange: the bound must have been reached"
    );
}
